//! Registered memory regions and the ring memory region multiplexing of §4.
//!
//! RNICs require message buffers to live in registered memory; registration
//! is expensive. Whale registers one continuous address space per channel
//! and models it as a ring: head/tail pointers jointly delimit the region
//! holding in-flight data, and each slot is reused after the RNIC (or the
//! remote reader) consumes it. This module reproduces that structure and
//! its accounting — slot reuse means registration is paid once, not per
//! message.

use std::collections::VecDeque;

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
/// without extra control messages. Sequence number `seq` lives in slot
/// `seq % capacity`.
///
/// The whole region is registered once, at creation, but its slots are
/// backed only as they are first used: the storage grows with the
/// occupancy, up to the capacity, and a ring that never holds more than a
/// few values never touches the rest.
#[derive(Clone, Debug)]
pub struct RingRegion<T> {
    /// The readable window, oldest (`tail_seq`) first.
    slots: VecDeque<T>,
    capacity: usize,
    next_seq: u64,
    consumed: u64,
    /// Registration handle for the whole ring (paid once).
    region: MemoryRegionId,
}

impl<T> RingRegion<T> {
    /// A ring with `slots` slots, registering its backing space once in
    /// `registry`. `slot_bytes` is the per-slot capacity used for
    /// registration accounting. No slot storage is allocated until the
    /// first produce.
    pub fn new(slots: usize, slot_bytes: usize, registry: &mut MemoryRegistry) -> Self {
        assert!(slots > 0, "ring needs at least one slot");
        let region = registry.register(slots * slot_bytes);
        RingRegion {
            slots: VecDeque::new(),
            capacity: slots,
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
        self.slots.len()
    }

    /// True if no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True if every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots the ring holds storage for: 0 until the first produce, then
    /// the most ever occupied at once, rounded up to the storage's growth
    /// step.
    pub fn backed_slots(&self) -> usize {
        self.slots.capacity()
    }

    /// Total values consumed since creation (reuse = consumed beyond
    /// capacity implies slots were recycled).
    pub fn total_consumed(&self) -> u64 {
        self.consumed
    }

    fn index_of(&self, seq: u64) -> usize {
        (seq % self.capacity as u64) as usize
    }

    /// Produce a value at the head. Fails if the ring is full (the caller
    /// must backpressure — this is the transfer-queue blocking the paper's
    /// controller reacts to).
    pub fn produce(&mut self, value: T) -> Result<SlotAddr, RingFull> {
        if self.is_full() {
            return Err(RingFull);
        }
        let seq = self.next_seq;
        self.slots.push_back(value);
        self.next_seq += 1;
        Ok(SlotAddr {
            index: self.index_of(seq),
            seq,
        })
    }

    /// Consume the oldest value (tail), freeing its slot for reuse.
    pub fn consume(&mut self) -> Option<(SlotAddr, T)> {
        let value = self.slots.pop_front()?;
        let seq = self.consumed;
        self.consumed += 1;
        Some((
            SlotAddr {
                index: self.index_of(seq),
                seq,
            },
            value,
        ))
    }

    /// The readable window's values, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter()
    }

    /// Consume the `n` oldest values (all of them, if fewer are held).
    pub fn drain(&mut self, n: usize) -> impl Iterator<Item = T> + '_ {
        let n = n.min(self.len());
        self.consumed += n as u64;
        self.slots.drain(..n)
    }

    /// Read the value at the tail without consuming (models a remote
    /// `RDMA READ` of the next message before acknowledging it).
    pub fn peek(&self) -> Option<&T> {
        self.slots.front()
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
        Some(SlotAddr {
            index: self.index_of(seq),
            seq,
        })
    }

    /// Read the value holding sequence number `seq` without consuming —
    /// the fetch-by-seq form of [`RingRegion::peek`] a remote `RDMA READ`
    /// addresses slots with. Returns `None` when `seq` is outside the
    /// readable window `tail_seq()..next_seq()`.
    pub fn peek_at(&self, seq: u64) -> Option<&T> {
        self.addr_of(seq)?;
        self.slots.get((seq - self.consumed) as usize)
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
    fn a_fresh_ring_backs_no_slot_until_its_first_produce() {
        let (mut r, reg) = ring(16 * 1024);
        assert_eq!(reg.registered_bytes(), 16 * 1024 * 256, "registered whole");
        assert_eq!(r.backed_slots(), 0);
        r.produce(7).unwrap();
        assert!(r.backed_slots() > 0);
        assert_eq!(r.peek_at(0), Some(&7));
    }

    #[test]
    fn backed_slots_are_bounded_by_the_high_water_occupancy() {
        const HIGH_WATER: u32 = 37;
        let (mut r, _) = ring(16 * 1024);
        for _ in 0..100 {
            for v in 0..HIGH_WATER {
                r.produce(v).unwrap();
            }
            for v in 0..HIGH_WATER {
                assert_eq!(r.consume().unwrap().1, v);
            }
        }
        let backed = r.backed_slots();
        let bound = (HIGH_WATER as usize).next_power_of_two();
        assert!((HIGH_WATER as usize..=bound).contains(&backed), "{backed}");
        assert_eq!(r.tail_seq(), 100 * HIGH_WATER as u64);
    }

    #[test]
    fn a_full_lazily_backed_ring_still_refuses_at_capacity() {
        let (mut r, _) = ring(1000);
        for v in 0..1000 {
            r.produce(v).unwrap();
        }
        assert_eq!(r.produce(1000), Err(RingFull));
        assert!(r.backed_slots() <= 1024);
        assert_eq!(r.addr_of(999).map(|a| a.index), Some(999));
        r.consume().unwrap();
        assert_eq!(r.produce(1000).map(|a| a.index), Ok(0), "slot 0 reused");
    }

    #[test]
    fn deregistration_counted() {
        let mut reg = MemoryRegistry::new();
        let id = reg.register(128);
        reg.deregister(id);
        assert_eq!(reg.deregistrations(), 1);
    }
}
