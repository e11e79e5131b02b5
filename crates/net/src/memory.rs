//! Registered memory regions and the ring memory region multiplexing of §4.
//!
//! RNICs require message buffers to live in registered memory; registration
//! is expensive. Whale registers one continuous address space per channel
//! and models it as a ring: head/tail pointers jointly delimit the region
//! holding in-flight data, and each slot is reused after the RNIC (or the
//! remote reader) consumes it. This module reproduces that structure and
//! its accounting — slot reuse means registration is paid once, not per
//! message.

/// A registered memory region handle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemoryRegionId(pub u64);

/// Bookkeeping for memory registration against an RNIC.
///
/// Tracks how many registrations were performed — the cost the ring design
/// exists to avoid.
#[derive(Clone, Debug, Default)]
pub struct MemoryRegistry {
    next_id: u64,
    registrations: u64,
    registered_bytes: u64,
    deregistrations: u64,
}

impl MemoryRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a region of `bytes`; returns its handle.
    pub fn register(&mut self, bytes: usize) -> MemoryRegionId {
        let id = MemoryRegionId(self.next_id);
        self.next_id += 1;
        self.registrations += 1;
        self.registered_bytes += bytes as u64;
        id
    }

    /// Deregister (recycle) a region.
    pub fn deregister(&mut self, _id: MemoryRegionId) {
        self.deregistrations += 1;
    }

    /// Total registrations performed.
    pub fn registrations(&self) -> u64 {
        self.registrations
    }

    /// Total bytes ever registered.
    pub fn registered_bytes(&self) -> u64 {
        self.registered_bytes
    }

    /// Total deregistrations performed.
    pub fn deregistrations(&self) -> u64 {
        self.deregistrations
    }
}

/// A slot address within a ring memory region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlotAddr {
    /// Index of the slot within the ring.
    pub index: usize,
    /// Monotonic sequence number of the value stored there.
    pub seq: u64,
}

/// Error returned when the ring has no free slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RingFull;

/// The ring memory region: a fixed set of slots reused in FIFO order.
///
/// The producer writes at the head; the consumer (RNIC coordinator or a
/// remote `RDMA READ`) frees slots at the tail. A slot is never overwritten
/// before it is consumed, and consumption is strictly sequential — the two
/// invariants the paper relies on for destination nodes to locate data
/// without extra control messages.
#[derive(Clone, Debug)]
pub struct RingRegion<T> {
    slots: Vec<Option<T>>,
    head: usize,
    tail: usize,
    len: usize,
    next_seq: u64,
    consumed: u64,
    /// Registration handle for the whole ring (paid once).
    region: MemoryRegionId,
}

impl<T> RingRegion<T> {
    /// Allocate a ring with `slots` slots, registering its backing space
    /// once in `registry`. `slot_bytes` is the per-slot capacity used for
    /// registration accounting.
    pub fn new(slots: usize, slot_bytes: usize, registry: &mut MemoryRegistry) -> Self {
        assert!(slots > 0, "ring needs at least one slot");
        let region = registry.register(slots * slot_bytes);
        RingRegion {
            slots: (0..slots).map(|_| None).collect(),
            head: 0,
            tail: 0,
            len: 0,
            next_seq: 0,
            consumed: 0,
            region,
        }
    }

    /// The registration handle of the backing space.
    pub fn region(&self) -> MemoryRegionId {
        self.region
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total values consumed since creation (reuse = consumed beyond
    /// capacity implies slots were recycled).
    pub fn total_consumed(&self) -> u64 {
        self.consumed
    }

    /// Produce a value at the head. Fails if the ring is full (the caller
    /// must backpressure — this is the transfer-queue blocking the paper's
    /// controller reacts to).
    pub fn produce(&mut self, value: T) -> Result<SlotAddr, RingFull> {
        if self.is_full() {
            return Err(RingFull);
        }
        let index = self.head;
        debug_assert!(self.slots[index].is_none(), "overwriting unconsumed slot");
        self.slots[index] = Some(value);
        self.head = (self.head + 1) % self.slots.len();
        self.len += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(SlotAddr { index, seq })
    }

    /// Consume the oldest value (tail), freeing its slot for reuse.
    pub fn consume(&mut self) -> Option<(SlotAddr, T)> {
        if self.is_empty() {
            return None;
        }
        let index = self.tail;
        let value = self.slots[index]
            .take()
            .expect("tail slot must be occupied");
        self.tail = (self.tail + 1) % self.slots.len();
        self.len -= 1;
        let seq = self.consumed;
        self.consumed += 1;
        Some((SlotAddr { index, seq }, value))
    }

    /// Read the value at the tail without consuming (models a remote
    /// `RDMA READ` of the next message before acknowledging it).
    pub fn peek(&self) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            self.slots[self.tail].as_ref()
        }
    }

    /// Sequence number of the oldest unconsumed value — the seq a remote
    /// reader fetches next. Equals `next_seq()` when the ring is empty.
    pub fn tail_seq(&self) -> u64 {
        self.consumed
    }

    /// Sequence number the next `produce` will be assigned. The readable
    /// window is `tail_seq()..next_seq()`.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Address of the slot holding sequence number `seq`, if it is still
    /// in the readable window. Remote readers use this to locate data by
    /// seq alone — no control message needed (§4 of the paper).
    pub fn addr_of(&self, seq: u64) -> Option<SlotAddr> {
        if seq < self.consumed || seq >= self.next_seq {
            return None;
        }
        let offset = (seq - self.consumed) as usize;
        let index = (self.tail + offset) % self.slots.len();
        Some(SlotAddr { index, seq })
    }

    /// Read the value holding sequence number `seq` without consuming —
    /// the fetch-by-seq form of [`RingRegion::peek`] a remote `RDMA READ`
    /// addresses slots with. Returns `None` when `seq` is outside the
    /// readable window `tail_seq()..next_seq()`.
    pub fn peek_at(&self, seq: u64) -> Option<&T> {
        let addr = self.addr_of(seq)?;
        self.slots[addr.index].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(slots: usize) -> (RingRegion<u32>, MemoryRegistry) {
        let mut reg = MemoryRegistry::new();
        let r = RingRegion::new(slots, 256, &mut reg);
        (r, reg)
    }

    #[test]
    fn registration_paid_once() {
        let (_r, reg) = ring(64);
        assert_eq!(reg.registrations(), 1);
        assert_eq!(reg.registered_bytes(), 64 * 256);
    }

    #[test]
    fn fifo_produce_consume() {
        let (mut r, _) = ring(4);
        for v in 0..4u32 {
            r.produce(v).unwrap();
        }
        for v in 0..4u32 {
            let (_, got) = r.consume().unwrap();
            assert_eq!(got, v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn full_ring_rejects_produce() {
        let (mut r, _) = ring(2);
        r.produce(1).unwrap();
        r.produce(2).unwrap();
        assert_eq!(r.produce(3), Err(RingFull));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn slots_are_reused_after_consumption() {
        let (mut r, _) = ring(2);
        // Push 10 values through a 2-slot ring.
        let mut indices = Vec::new();
        for v in 0..10u32 {
            let addr = r.produce(v).unwrap();
            indices.push(addr.index);
            let (_, got) = r.consume().unwrap();
            assert_eq!(got, v);
        }
        // Only 2 distinct physical slots are ever used.
        let mut distinct = indices.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 2);
        assert_eq!(r.total_consumed(), 10);
    }

    #[test]
    fn sequence_numbers_monotonic() {
        let (mut r, _) = ring(8);
        let a = r.produce(1).unwrap();
        let b = r.produce(2).unwrap();
        assert_eq!(b.seq, a.seq + 1);
        let (ca, _) = r.consume().unwrap();
        let (cb, _) = r.consume().unwrap();
        assert_eq!(ca.seq, 0);
        assert_eq!(cb.seq, 1);
    }

    #[test]
    fn peek_does_not_consume() {
        let (mut r, _) = ring(2);
        r.produce(42).unwrap();
        assert_eq!(r.peek(), Some(&42));
        assert_eq!(r.len(), 1);
        assert_eq!(r.consume().unwrap().1, 42);
        assert_eq!(r.peek(), None);
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut r, _) = ring(3);
        r.produce(1).unwrap();
        r.produce(2).unwrap();
        r.consume().unwrap();
        r.produce(3).unwrap();
        r.produce(4).unwrap(); // wraps to slot 0
        assert!(r.is_full());
        assert_eq!(r.consume().unwrap().1, 2);
        assert_eq!(r.consume().unwrap().1, 3);
        assert_eq!(r.consume().unwrap().1, 4);
    }

    #[test]
    fn fetch_by_seq_window() {
        let (mut r, _) = ring(3);
        assert_eq!(r.tail_seq(), 0);
        assert_eq!(r.next_seq(), 0);
        assert_eq!(r.peek_at(0), None);
        r.produce(10).unwrap();
        r.produce(11).unwrap();
        assert_eq!(r.peek_at(0), Some(&10));
        assert_eq!(r.peek_at(1), Some(&11));
        assert_eq!(r.peek_at(2), None);
        r.consume().unwrap();
        assert_eq!(r.tail_seq(), 1);
        assert_eq!(r.peek_at(0), None, "consumed seqs leave the window");
        assert_eq!(r.peek_at(1), Some(&11));
    }

    #[test]
    fn fetch_by_seq_survives_wraparound() {
        let (mut r, _) = ring(2);
        for v in 0..9u32 {
            let addr = r.produce(v).unwrap();
            assert_eq!(r.addr_of(addr.seq), Some(addr));
            assert_eq!(r.peek_at(addr.seq), Some(&v));
            assert_eq!(r.peek_at(r.tail_seq()), r.peek());
            r.consume().unwrap();
        }
        assert_eq!(r.tail_seq(), r.next_seq());
    }

    #[test]
    fn deregistration_counted() {
        let mut reg = MemoryRegistry::new();
        let id = reg.register(128);
        reg.deregister(id);
        assert_eq!(reg.deregistrations(), 1);
    }
}
