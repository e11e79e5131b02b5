//! `BufferPool`: reusable encode buffers for the hot serialization path.
//!
//! Every `encode_*` call used to allocate a fresh `BytesMut`; at high
//! tuple rates that is one heap allocation per frame — exactly the kind
//! of per-message cost the paper's serialize-once design eliminates. The
//! pool keeps released buffers (capacity intact) and hands them back on
//! the next acquire, the codec-layer analogue of the registered
//! memory-region reuse in `whale-net::memory`: registration (allocation)
//! is paid once, then the same region is recycled for every transfer.
//!
//! Buffers are [`PooledBuf`] guards: deref to `BytesMut` for encoding,
//! return to the pool on drop. After warmup the steady state allocates
//! nothing (the exported hit rate approaches 1.0) and locks nothing: each
//! thread keeps the buffer it released last out of the shared free list
//! and counts into a lane only it writes, so an acquire → share → drop
//! round trip on one thread touches no mutex and no shared
//! read-modify-write. Readers sum the lanes: every counter is exact
//! whenever it is read.

use bytes::BytesMut;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering::Acquire, Ordering::Relaxed, Ordering::Release};
use std::sync::Arc;

/// Sizing policy of a [`BufferPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Most released buffers kept for reuse; releases beyond it free the
    /// buffer instead (bounds idle memory).
    pub max_pooled: usize,
    /// Capacity new buffers are allocated with on a pool miss.
    pub initial_capacity: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_pooled: 256,
            initial_capacity: 1024,
        }
    }
}

/// The counters of a [`Lane`], by index: the returns first, because
/// [`Lane::absorb`] reads in this order.
#[derive(Clone, Copy)]
enum Stat {
    Released,
    Discarded,
    Hits,
    Misses,
    /// Wire-buffer snapshots taken via [`PooledBuf::share`].
    Shares,
    /// Bytes copied out of scratch buffers by those snapshots.
    SharedBytes,
    /// Most buffers the thread ever held at once.
    Peak,
}
use Stat::*;

/// One thread's counters for one pool. Only that thread writes them — a
/// plain load and store, never a read-modify-write — and anyone may read.
#[derive(Default)]
struct Lane([AtomicU64; Peak as usize + 1]);

impl Lane {
    fn get(&self, stat: Stat) -> u64 {
        self.0[stat as usize].load(Relaxed)
    }

    fn set(&self, stat: Stat, value: u64) {
        self.0[stat as usize].store(value, Release);
    }

    fn add(&self, stat: Stat, by: u64) {
        self.set(stat, self.get(stat) + by);
    }

    /// Fold `other` into `self`: every counter a sum, [`Stat::Peak`] a
    /// maximum. `other`'s thread may be counting meanwhile, so its returns
    /// are read first, each load pairing with the `Release` store that
    /// counted it: every return summed has the acquire before it summed
    /// too, and no lane reads as holding fewer than zero buffers.
    fn absorb(&self, other: &Lane) {
        for (i, (mine, theirs)) in self.0.iter().zip(&other.0).enumerate() {
            let (a, b) = (mine.load(Relaxed), theirs.load(Acquire));
            let peak = i == Peak as usize;
            mine.store(if peak { a.max(b) } else { a + b }, Relaxed);
        }
    }
}

struct PoolInner {
    config: PoolConfig,
    shared: Mutex<Shared>,
}

#[derive(Default)]
struct Shared {
    /// Buffers released by threads whose own cache was occupied.
    free: Vec<BytesMut>,
    /// The lane of every thread attached to the pool right now ...
    lanes: Vec<Arc<Lane>>,
    /// ... and the totals of the threads that have detached (written
    /// under this lock only).
    retired: Lane,
}

impl Shared {
    /// Put `buf` on the free list if there is room — every attached
    /// thread's cache slot counts against [`PoolConfig::max_pooled`] too.
    /// Returns whether it was kept.
    fn keep(&mut self, buf: BytesMut, config: &PoolConfig) -> bool {
        let room = self.free.len() + self.lanes.len() < config.max_pooled;
        self.free.extend(room.then_some(buf));
        room
    }
}

/// A thread's attachment to the pool it used last: its lane there, and at
/// most one released buffer kept back from the shared free list.
struct Local {
    pool: Arc<PoolInner>,
    lane: Arc<Lane>,
    cached: Option<BytesMut>,
    /// Whether `cached` may be filled: only the first
    /// [`PoolConfig::max_pooled`] attached threads get a cache slot.
    may_cache: bool,
    /// Buffers of the pool this thread holds right now.
    held: u64,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

impl PoolInner {
    /// Run `f` on the calling thread's attachment to this pool, attaching
    /// first if the thread used another pool (or none) last. `None` only
    /// while the thread's locals are being torn down.
    fn with_local<R>(self: &Arc<Self>, f: impl FnOnce(&mut Local) -> R) -> Option<R> {
        let attached = |slot: &mut Option<Local>| {
            if !slot.as_ref().is_some_and(|l| Arc::ptr_eq(&l.pool, self)) {
                let lane = Arc::new(Lane::default());
                let mut shared = self.shared.lock();
                shared.lanes.push(Arc::clone(&lane));
                let may_cache = shared.lanes.len() <= self.config.max_pooled;
                drop(shared);
                // Dropping the previous attachment detaches it.
                *slot = Some(Local {
                    pool: Arc::clone(self),
                    lane,
                    cached: None,
                    may_cache,
                    held: 0,
                });
            }
            f(slot.as_mut().expect("attached above"))
        };
        LOCAL.try_with(|slot| attached(&mut slot.borrow_mut())).ok()
    }

    /// Every lane folded into one, at one instant.
    fn totals(&self) -> Lane {
        let shared = self.shared.lock();
        let totals = Lane::default();
        shared.lanes.iter().for_each(|lane| totals.absorb(lane));
        totals.absorb(&shared.retired);
        totals
    }
}

impl Drop for Local {
    /// Detach: the cached buffer moves to the shared list (or is freed if
    /// that is full) and the lane's counts to the retired totals.
    fn drop(&mut self) {
        let lane = &self.lane;
        let mut shared = self.pool.shared.lock();
        shared.lanes.retain(|attached| !Arc::ptr_eq(attached, lane));
        if let Some(buf) = self.cached.take() {
            if !shared.keep(buf, &self.pool.config) {
                lane.set(Released, lane.get(Released) - 1);
                lane.add(Discarded, 1);
            }
        }
        shared.retired.absorb(lane);
    }
}

/// A shared pool of encode buffers. Cloning shares the same pool.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new(PoolConfig::default())
    }
}

impl BufferPool {
    /// New empty pool.
    pub fn new(config: PoolConfig) -> Self {
        BufferPool {
            inner: Arc::new(PoolInner {
                config,
                shared: Mutex::default(),
            }),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> PoolConfig {
        self.inner.config
    }

    /// Take a cleared buffer from the pool (hit) or allocate one (miss).
    /// The buffer returns to the pool when the guard drops.
    pub fn acquire(&self) -> PooledBuf<'_> {
        let reused = self.inner.with_local(|local| {
            let lane = &local.lane;
            local.held += 1;
            lane.set(Peak, lane.get(Peak).max(local.held));
            let cached = local.cached.take();
            let reused = cached.or_else(|| self.inner.shared.lock().free.pop());
            lane.add(if reused.is_some() { Hits } else { Misses }, 1);
            reused
        });
        let buf = reused
            .flatten()
            .unwrap_or_else(|| BytesMut::with_capacity(self.inner.config.initial_capacity));
        PooledBuf {
            buf: Some(buf),
            pool: &self.inner,
        }
    }

    /// Pool hits (acquires served from a released buffer) so far.
    pub fn hits(&self) -> u64 {
        self.inner.totals().get(Hits)
    }

    /// Pool misses (acquires that allocated) so far.
    pub fn misses(&self) -> u64 {
        self.inner.totals().get(Misses)
    }

    /// Buffers returned to the pool so far.
    pub fn released(&self) -> u64 {
        self.inner.totals().get(Released)
    }

    /// Buffers freed instead of pooled because the pool was full.
    pub fn discarded(&self) -> u64 {
        self.inner.totals().get(Discarded)
    }

    /// Buffers currently acquired and not yet returned.
    pub fn outstanding(&self) -> u64 {
        let t = self.inner.totals();
        t.get(Hits) + t.get(Misses) - t.get(Released) - t.get(Discarded)
    }

    /// Most buffers any one thread ever held at once.
    pub fn high_watermark(&self) -> u64 {
        self.inner.totals().get(Peak)
    }

    /// Wire-buffer snapshots taken via [`PooledBuf::share`]. On the
    /// zero-copy path this is one per *encoded* frame regardless of
    /// fan-out — relay forwarding clones the snapshot by reference — so
    /// `shares ≈ frames_encoded` confirms the serialize-once discipline.
    pub fn shares(&self) -> u64 {
        self.inner.totals().get(Shares)
    }

    /// Bytes copied out of scratch buffers by [`PooledBuf::share`] (the
    /// one physical copy a zero-copy frame ever pays).
    pub fn shared_bytes(&self) -> u64 {
        self.inner.totals().get(SharedBytes)
    }

    /// Released buffers currently available for reuse (the shared free
    /// list plus every thread's cached buffer): each release added one,
    /// each hit took one. Exact only while no thread is using the pool: a
    /// buffer released on one thread can be hit on another, so a busy
    /// pool may read low.
    pub fn pooled(&self) -> usize {
        let t = self.inner.totals();
        t.get(Released).saturating_sub(t.get(Hits)) as usize
    }

    /// Hits over total acquires (0 before the first acquire). Approaches
    /// 1.0 once the working set is warm — the steady state allocates
    /// nothing.
    pub fn hit_rate(&self) -> f64 {
        let t = self.inner.totals();
        let (hits, misses) = (t.get(Hits), t.get(Misses));
        hits as f64 / (hits + misses).max(1) as f64
    }
}

/// An acquired pool buffer. Dereferences to `BytesMut` for encoding and
/// returns to the pool (cleared, capacity kept) when dropped.
pub struct PooledBuf<'a> {
    buf: Option<BytesMut>,
    pool: &'a Arc<PoolInner>,
}

impl PooledBuf<'_> {
    /// Copy the encoded contents into a freshly shared wire buffer (the
    /// transfer the fabric posts by reference); the scratch buffer itself
    /// stays with the guard and returns to the pool.
    pub fn share(&self) -> Arc<[u8]> {
        self.share_from(0)
    }

    /// [`Self::share`] of the contents from byte `start` on — one frame
    /// of several encoded back to back in the same scratch.
    pub fn share_from(&self, start: usize) -> Arc<[u8]> {
        let frame = &self[start..];
        self.pool.with_local(|local| {
            local.lane.add(Shares, 1);
            local.lane.add(SharedBytes, frame.len() as u64);
        });
        Arc::from(frame)
    }
}

impl Deref for PooledBuf<'_> {
    type Target = BytesMut;
    fn deref(&self) -> &BytesMut {
        self.buf.as_ref().expect("buffer present until drop")
    }
}

impl DerefMut for PooledBuf<'_> {
    fn deref_mut(&mut self) -> &mut BytesMut {
        self.buf.as_mut().expect("buffer present until drop")
    }
}

impl Drop for PooledBuf<'_> {
    fn drop(&mut self) {
        let mut buf = self.buf.take().expect("dropped once");
        buf.clear();
        let pool = self.pool;
        pool.with_local(|local| {
            local.held = local.held.saturating_sub(1);
            let kept = if local.cached.is_none() && local.may_cache {
                local.cached = Some(buf);
                true
            } else {
                pool.shared.lock().keep(buf, &pool.config)
            };
            local.lane.add(if kept { Released } else { Discarded }, 1);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    #[test]
    fn buffers_returned_after_use_are_reused() {
        let pool = BufferPool::default();
        {
            let mut a = pool.acquire();
            a.put_slice(b"warmup frame");
        } // drop returns it
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.pooled(), 1);
        for _ in 0..10 {
            let mut b = pool.acquire();
            assert!(b.is_empty(), "buffers come back cleared");
            b.put_slice(b"steady state");
        }
        assert_eq!(pool.misses(), 1, "steady state allocates nothing");
        assert_eq!(pool.hits(), 10);
        assert!(pool.hit_rate() > 0.9);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn high_watermark_tracks_concurrent_outstanding() {
        let pool = BufferPool::default();
        let a = pool.acquire();
        let b = pool.acquire();
        let c = pool.acquire();
        assert_eq!(pool.outstanding(), 3);
        drop((a, b, c));
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.high_watermark(), 3);
        // Watermark is a high-water mark, not a gauge.
        let _d = pool.acquire();
        assert_eq!(pool.high_watermark(), 3);
    }

    #[test]
    fn pool_bounds_idle_buffers() {
        let pool = BufferPool::new(PoolConfig {
            max_pooled: 2,
            initial_capacity: 16,
        });
        let all: Vec<_> = (0..5).map(|_| pool.acquire()).collect();
        drop(all);
        assert_eq!(pool.pooled(), 2, "releases beyond max_pooled are freed");
        assert_eq!(pool.released(), 2);
        assert_eq!(pool.discarded(), 3);
    }

    #[test]
    fn share_snapshots_contents_and_keeps_buffer_pooled() {
        let pool = BufferPool::default();
        let shared = {
            let mut b = pool.acquire();
            b.put_slice(b"frame");
            b.share()
        };
        assert_eq!(&shared[..], b"frame");
        assert_eq!(pool.pooled(), 1, "scratch buffer returned despite share");
        let another = Arc::clone(&shared);
        assert_eq!(&another[..], b"frame", "shared wire buffer outlives guard");
        assert_eq!(pool.shares(), 1, "one snapshot per encoded frame");
        assert_eq!(pool.shared_bytes(), 5);
    }

    #[test]
    fn shares_count_snapshots_not_reference_clones() {
        let pool = BufferPool::default();
        let mut b = pool.acquire();
        b.put_slice(b"relayed frame");
        let wire = b.share();
        // Relay fan-out hands the same snapshot to every child by
        // reference; only the snapshot itself is a share.
        let _children: Vec<_> = (0..4).map(|_| Arc::clone(&wire)).collect();
        assert_eq!(pool.shares(), 1);
        assert_eq!(pool.shared_bytes(), 13);
    }

    #[test]
    fn counters_are_exact_across_four_threads() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 10_000;
        let pool = BufferPool::default();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for round in 0..ROUNDS {
                        let mut frame = pool.acquire();
                        frame.put_slice(b"frame");
                        if round % 8 == 0 {
                            // Hold three at once now and then.
                            let more = (pool.acquire(), pool.acquire());
                            assert!(pool.outstanding() >= 3);
                            drop(more);
                        }
                        std::hint::black_box(frame.share());
                    }
                });
            }
        });
        let acquires = THREADS * (ROUNDS + 2 * ROUNDS / 8);
        assert_eq!(pool.hits() + pool.misses(), acquires);
        assert_eq!(pool.released() + pool.discarded(), acquires);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.shares(), THREADS * ROUNDS);
        assert_eq!(pool.shared_bytes(), THREADS * ROUNDS * 5);
        assert_eq!(pool.high_watermark(), 3, "the most one thread held");
        // Each thread warmed at most three buffers; all of them — the
        // exited threads' cached ones included — are back in the pool.
        assert!(pool.misses() <= THREADS * 3);
        assert_eq!(pool.pooled() as u64, pool.misses() - pool.discarded());
        assert!(pool.pooled() <= pool.config().max_pooled);
        drop(pool.acquire());
        assert_eq!(pool.hits() + pool.misses(), acquires + 1);
        assert!(pool.misses() <= THREADS * 3, "a flushed buffer is reused");
    }

    #[test]
    fn a_thread_that_switches_pools_leaves_nothing_behind() {
        let (a, b) = (BufferPool::default(), BufferPool::default());
        for _ in 0..3 {
            drop(a.acquire());
            drop(b.acquire());
        }
        for pool in [&a, &b] {
            assert_eq!((pool.misses(), pool.hits()), (1, 2));
            assert_eq!(pool.released(), 3);
            assert_eq!(pool.outstanding(), 0);
            assert_eq!(pool.pooled(), 1);
            assert_eq!(pool.high_watermark(), 1);
        }
        // A guard may outlive its thread's attachment to the pool.
        let held = a.acquire();
        drop(b.acquire());
        assert_eq!(a.outstanding(), 1);
        drop(held);
        assert_eq!(a.outstanding(), 0);
        assert_eq!(a.pooled(), 1);
    }

    #[test]
    fn counters_snapshot() {
        let pool = BufferPool::default();
        drop(pool.acquire());
        drop(pool.acquire());
        assert_eq!((pool.misses(), pool.hits(), pool.released()), (1, 1, 2));
        assert_eq!((pool.outstanding(), pool.high_watermark()), (0, 1));
        assert!((pool.hit_rate() - 0.5).abs() < 1e-12);
    }
}
