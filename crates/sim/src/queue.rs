//! Bounded FIFO queues with occupancy statistics.
//!
//! The transfer queue of an upstream instance is the central object of the
//! paper's analysis (M/D/1, warning waterline, overflow = tuple loss).
//! [`BoundedQueue`] implements that queue with the bookkeeping the
//! self-adjusting controller and the experiments need: current length,
//! high-water mark, and drop counts.

use std::collections::VecDeque;

/// Outcome of a push attempt on a bounded queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PushOutcome {
    /// The item was enqueued.
    Enqueued,
    /// The queue was full; the item was dropped (stream input loss, Def. 4).
    Dropped,
}

/// A bounded FIFO queue with occupancy statistics.
#[derive(Clone, Debug)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    /// Largest length ever observed.
    high_water: usize,
    /// Items rejected because the queue was full.
    dropped: u64,
}

impl<T> BoundedQueue<T> {
    /// Create a queue with the given maximum capacity `Q` (> 0).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            items: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            high_water: 0,
            dropped: 0,
        }
    }

    /// Attempt to enqueue; drops the item if full.
    pub fn push(&mut self, item: T) -> PushOutcome {
        if self.items.len() >= self.capacity {
            self.dropped += 1;
            return PushOutcome::Dropped;
        }
        self.items.push_back(item);
        if self.items.len() > self.high_water {
            self.high_water = self.items.len();
        }
        PushOutcome::Enqueued
    }

    /// Dequeue the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peek at the oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True if at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// The configured capacity `Q`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Largest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of items dropped due to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(10);
        for i in 0..5 {
            assert_eq!(q.push(i), PushOutcome::Enqueued);
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut q = BoundedQueue::new(2);
        assert_eq!(q.push(1), PushOutcome::Enqueued);
        assert_eq!(q.push(2), PushOutcome::Enqueued);
        assert_eq!(q.push(3), PushOutcome::Dropped);
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.len(), 2);
        assert!(q.is_full());
        // Contents are unaffected by the drop.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut q = BoundedQueue::new(10);
        q.push(1);
        q.push(2);
        q.push(3);
        q.pop();
        q.pop();
        assert_eq!(q.high_water(), 3);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    #[test]
    fn front_peeks_without_removing() {
        let mut q = BoundedQueue::new(2);
        q.push(7);
        assert_eq!(q.front(), Some(&7));
        assert_eq!(q.len(), 1);
    }
}
