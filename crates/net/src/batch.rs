//! Stream Slicing: the MMS / WTL batching mechanism of §4.
//!
//! The sender maintains a transfer buffer. When buffered data reaches
//! *Max Memory Size* (MMS) it is assembled into one RDMA work request and
//! sent; a timer bounds the wait of the earliest buffered tuple by *Wait
//! Time Limit* (WTL) so a slow stream still flushes promptly. The paper
//! calibrates MMS = 256 KB and WTL = 1 ms (Figs 11–12).

use std::time::Duration;

/// Configuration of the stream-slicing batcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// Max Memory Size: flush once this many bytes are buffered.
    pub mms: usize,
    /// Wait Time Limit: flush once the oldest buffered item is this old.
    pub wtl: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        // The paper's chosen operating point.
        BatchConfig {
            mms: 256 * 1024,
            wtl: Duration::from_millis(1),
        }
    }
}

/// A flushed batch.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch<T> {
    /// The buffered items, oldest first.
    pub items: Vec<T>,
    /// Total payload bytes.
    pub bytes: usize,
    /// Arrival time of the oldest item (for latency accounting).
    pub oldest_at: Duration,
    /// Why the batch was emitted.
    pub reason: FlushReason,
}

/// What triggered a flush.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushReason {
    /// Buffered bytes reached MMS.
    Size,
    /// The WTL timer expired.
    Timer,
    /// The caller forced a flush (e.g. shutdown).
    Forced,
}

/// The stream-slicing transfer buffer.
///
/// Deterministic and time-explicit: the caller passes `now`, measured from
/// an origin of its choosing (a transport's creation, or a simulation's
/// start), and asks for the next timer [`Batcher::deadline`].
#[derive(Clone, Debug)]
pub struct Batcher<T> {
    config: BatchConfig,
    items: Vec<T>,
    bytes: usize,
    oldest_at: Option<Duration>,
    flushed_batches: u64,
    flushed_items: u64,
}

impl<T> Batcher<T> {
    /// New empty batcher.
    pub fn new(config: BatchConfig) -> Self {
        assert!(config.mms > 0, "MMS must be positive");
        assert!(!config.wtl.is_zero(), "WTL must be positive");
        Batcher {
            config,
            items: Vec::new(),
            bytes: 0,
            oldest_at: None,
            flushed_batches: 0,
            flushed_items: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> BatchConfig {
        self.config
    }

    /// Buffered item count.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Buffered bytes.
    pub fn buffered_bytes(&self) -> usize {
        self.bytes
    }

    /// Offer an item of `bytes` at time `now`. Returns a batch if this
    /// offer filled the buffer to MMS.
    pub fn offer(&mut self, now: Duration, item: T, bytes: usize) -> Option<Batch<T>> {
        if self.items.is_empty() {
            self.oldest_at = Some(now);
        }
        self.items.push(item);
        self.bytes += bytes;
        if self.bytes >= self.config.mms {
            Some(self.emit(FlushReason::Size))
        } else {
            None
        }
    }

    /// When the WTL timer for the current buffer fires (None if empty).
    /// The timer resets whenever a batch is emitted, matching the paper:
    /// "the timer will be reset when an RDMA work request is consumed".
    pub fn deadline(&self) -> Option<Duration> {
        self.oldest_at.map(|t| t + self.config.wtl)
    }

    /// Handle a timer tick at `now`: flush if the deadline has passed.
    pub fn on_timer(&mut self, now: Duration) -> Option<Batch<T>> {
        match self.deadline() {
            Some(d) if now >= d && !self.items.is_empty() => Some(self.emit(FlushReason::Timer)),
            _ => None,
        }
    }

    /// Force a flush regardless of size/time (e.g. end of stream).
    pub fn flush(&mut self) -> Option<Batch<T>> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.emit(FlushReason::Forced))
        }
    }

    fn emit(&mut self, reason: FlushReason) -> Batch<T> {
        let items = std::mem::take(&mut self.items);
        let bytes = self.bytes;
        self.bytes = 0;
        let oldest_at = self.oldest_at.take().expect("non-empty buffer has oldest");
        self.flushed_batches += 1;
        self.flushed_items += items.len() as u64;
        Batch {
            items,
            bytes,
            oldest_at,
            reason,
        }
    }

    /// Batches emitted so far.
    pub fn flushed_batches(&self) -> u64 {
        self.flushed_batches
    }

    /// Items emitted so far.
    pub fn flushed_items(&self) -> u64 {
        self.flushed_items
    }

    /// Mean items per emitted batch (0 if none).
    pub fn mean_batch_size(&self) -> f64 {
        if self.flushed_batches == 0 {
            0.0
        } else {
            self.flushed_items as f64 / self.flushed_batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mms: usize, wtl_ms: u64) -> BatchConfig {
        BatchConfig {
            mms,
            wtl: Duration::from_millis(wtl_ms),
        }
    }

    #[test]
    fn size_trigger_at_mms() {
        let mut b = Batcher::new(cfg(1000, 10));
        assert!(b.offer(Duration::ZERO, 1, 400).is_none());
        assert!(b.offer(Duration::ZERO, 2, 400).is_none());
        let batch = b
            .offer(Duration::ZERO, 3, 400)
            .expect("third offer crosses MMS");
        assert_eq!(batch.reason, FlushReason::Size);
        assert_eq!(batch.items, vec![1, 2, 3]);
        assert_eq!(batch.bytes, 1200);
        assert!(b.is_empty());
    }

    #[test]
    fn timer_trigger_at_wtl() {
        let mut b = Batcher::new(cfg(1_000_000, 1));
        b.offer(Duration::from_micros(100), 7, 50);
        let deadline = b.deadline().unwrap();
        assert_eq!(deadline, Duration::from_micros(1_100));
        // Before the deadline: no flush.
        assert!(b.on_timer(Duration::from_micros(1_099)).is_none());
        // At the deadline: flush.
        let batch = b.on_timer(deadline).unwrap();
        assert_eq!(batch.reason, FlushReason::Timer);
        assert_eq!(batch.oldest_at, Duration::from_micros(100));
        assert!(b.deadline().is_none());
    }

    #[test]
    fn deadline_tracks_oldest_item() {
        let mut b = Batcher::new(cfg(1_000_000, 5));
        b.offer(Duration::from_millis(1), 1, 10);
        b.offer(Duration::from_millis(4), 2, 10);
        // Deadline is oldest + WTL, unaffected by the second item.
        assert_eq!(b.deadline(), Some(Duration::from_millis(6)));
    }

    #[test]
    fn timer_resets_after_size_flush() {
        let mut b = Batcher::new(cfg(100, 5));
        b.offer(Duration::from_millis(1), 1, 100).unwrap();
        assert!(b.deadline().is_none(), "buffer empty after size flush");
        b.offer(Duration::from_millis(10), 2, 10);
        assert_eq!(b.deadline(), Some(Duration::from_millis(15)));
    }

    #[test]
    fn forced_flush() {
        let mut b = Batcher::new(cfg(1_000, 10));
        assert!(b.flush().is_none());
        b.offer(Duration::ZERO, 1, 10);
        let batch = b.flush().unwrap();
        assert_eq!(batch.reason, FlushReason::Forced);
        assert_eq!(batch.items.len(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut b = Batcher::new(cfg(100, 10));
        b.offer(Duration::ZERO, 1, 60);
        b.offer(Duration::ZERO, 2, 60).unwrap();
        b.offer(Duration::ZERO, 3, 150).unwrap();
        assert_eq!(b.flushed_batches(), 2);
        assert_eq!(b.flushed_items(), 3);
        assert!((b.mean_batch_size() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn offer_exactly_on_wtl_deadline() {
        let mut b = Batcher::new(cfg(1_000_000, 1));
        b.offer(Duration::from_micros(500), 1, 10);
        let deadline = b.deadline().unwrap();
        assert_eq!(deadline, Duration::from_micros(1_500));

        // An offer landing exactly on the deadline joins the buffer (the
        // flusher drains posts before firing the timer) and must not move
        // the deadline — it still tracks the oldest item.
        assert!(b.offer(deadline, 2, 10).is_none());
        assert_eq!(b.deadline(), Some(deadline));

        // The timer tick at that same instant flushes both, and the flush
        // resets the window: an offer at the very same time starts a new
        // full WTL wait.
        let batch = b.on_timer(deadline).unwrap();
        assert_eq!(batch.reason, FlushReason::Timer);
        assert_eq!(batch.items, vec![1, 2]);
        assert_eq!(batch.oldest_at, Duration::from_micros(500));
        b.offer(deadline, 3, 10);
        assert_eq!(b.deadline(), Some(deadline + Duration::from_millis(1)));
        assert!(b.on_timer(deadline).is_none());
    }

    #[test]
    fn default_is_paper_operating_point() {
        let c = BatchConfig::default();
        assert_eq!(c.mms, 256 * 1024);
        assert_eq!(c.wtl, Duration::from_millis(1));
    }

    #[test]
    fn single_oversized_item_flushes_alone() {
        let mut b = Batcher::new(cfg(100, 10));
        let batch = b.offer(Duration::ZERO, 9, 500).unwrap();
        assert_eq!(batch.items, vec![9]);
        assert_eq!(batch.bytes, 500);
    }
}
