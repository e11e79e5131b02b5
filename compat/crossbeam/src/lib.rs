//! Offline-compatible subset of the `crossbeam` crate.
//!
//! Only [`channel`] is provided — the workspace uses crossbeam solely for
//! MPSC channels with a bounded `try_send`, and only in the live runtime
//! (`whale-dsps`: its cross-shard inboxes and completion signals). The
//! fabric does not use it: each endpoint's queue is `whale-net`'s own.
//! The implementation delegates to `std::sync::mpsc`, whose
//! `Sender`/`SyncSender` are `Sync` on modern rustc.

pub mod channel {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;

    /// Error returned by [`Sender::send`] when the receiver is gone.
    #[derive(PartialEq, Eq, Clone, Copy, Debug)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    #[derive(PartialEq, Eq, Clone, Copy, Debug)]
    pub enum TrySendError<T> {
        /// The channel is bounded and full.
        Full(T),
        /// The receiver has disconnected.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv`] when all senders are gone.
    #[derive(PartialEq, Eq, Clone, Copy, Debug)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(PartialEq, Eq, Clone, Copy, Debug)]
    pub enum TryRecvError {
        /// No message is currently queued.
        Empty,
        /// All senders have disconnected.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(PartialEq, Eq, Clone, Copy, Debug)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no message.
        Timeout,
        /// All senders have disconnected.
        Disconnected,
    }

    enum Tx<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    impl<T> Clone for Tx<T> {
        fn clone(&self) -> Self {
            match self {
                Tx::Unbounded(t) => Tx::Unbounded(t.clone()),
                Tx::Bounded(t) => Tx::Bounded(t.clone()),
            }
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        tx: Tx<T>,
        depth: Arc<AtomicUsize>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                tx: self.tx.clone(),
                depth: Arc::clone(&self.depth),
            }
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Sender<T> {
        /// Send, blocking while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            // Count before the send and undo on failure: the send wakes a
            // blocked receiver, whose `fetch_sub` must never run first.
            self.depth.fetch_add(1, Ordering::Relaxed);
            let r = match &self.tx {
                Tx::Unbounded(t) => t.send(value).map_err(|mpsc::SendError(v)| SendError(v)),
                Tx::Bounded(t) => t.send(value).map_err(|mpsc::SendError(v)| SendError(v)),
            };
            if r.is_err() {
                self.depth.fetch_sub(1, Ordering::Relaxed);
            }
            r
        }

        /// Send without blocking; fails with [`TrySendError::Full`] when a
        /// bounded channel is at capacity.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            self.depth.fetch_add(1, Ordering::Relaxed);
            let r = match &self.tx {
                Tx::Unbounded(t) => t
                    .send(value)
                    .map_err(|mpsc::SendError(v)| TrySendError::Disconnected(v)),
                Tx::Bounded(t) => t.try_send(value).map_err(|e| match e {
                    mpsc::TrySendError::Full(v) => TrySendError::Full(v),
                    mpsc::TrySendError::Disconnected(v) => TrySendError::Disconnected(v),
                }),
            };
            if r.is_err() {
                self.depth.fetch_sub(1, Ordering::Relaxed);
            }
            r
        }

        /// Messages sent but not yet received (queue depth). A send in
        /// flight on another thread may already be counted.
        pub fn len(&self) -> usize {
            self.depth.load(Ordering::Relaxed)
        }

        /// True if no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        rx: mpsc::Receiver<T>,
        depth: Arc<AtomicUsize>,
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or every sender disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            let r = self.rx.recv().map_err(|_| RecvError);
            if r.is_ok() {
                self.depth.fetch_sub(1, Ordering::Relaxed);
            }
            r
        }

        /// Block until a message arrives, `timeout` elapses, or every
        /// sender disconnects.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let r = self.rx.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            });
            if r.is_ok() {
                self.depth.fetch_sub(1, Ordering::Relaxed);
            }
            r
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let r = self.rx.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            });
            if r.is_ok() {
                self.depth.fetch_sub(1, Ordering::Relaxed);
            }
            r
        }

        /// Messages sent but not yet received (queue depth).
        pub fn len(&self) -> usize {
            self.depth.load(Ordering::Relaxed)
        }

        /// True if no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Iterate until every sender disconnects.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }
    }

    /// A channel with unlimited buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        let depth = Arc::new(AtomicUsize::new(0));
        (
            Sender {
                tx: Tx::Unbounded(tx),
                depth: Arc::clone(&depth),
            },
            Receiver { rx, depth },
        )
    }

    /// A channel holding at most `capacity` in-flight messages.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(capacity);
        let depth = Arc::new(AtomicUsize::new(0));
        (
            Sender {
                tx: Tx::Bounded(tx),
                depth: Arc::clone(&depth),
            },
            Receiver { rx, depth },
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unbounded_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.try_send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn bounded_full_and_disconnected() {
            let (tx, rx) = bounded(1);
            tx.try_send(1).unwrap();
            assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
            drop(rx);
            let (tx2, rx2) = bounded(4);
            drop(rx2);
            assert_eq!(tx2.try_send(9), Err(TrySendError::Disconnected(9)));
        }

        #[test]
        fn len_tracks_depth() {
            let (tx, rx) = unbounded();
            assert_eq!(tx.len(), 0);
            assert!(tx.is_empty());
            tx.send(1).unwrap();
            tx.try_send(2).unwrap();
            assert_eq!(tx.len(), 2);
            assert_eq!(rx.len(), 2);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(tx.len(), 1);
            assert_eq!(rx.try_recv(), Ok(2));
            assert!(rx.is_empty());
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            assert_eq!(tx.len(), 0);
        }

        #[test]
        fn len_not_bumped_on_failed_send() {
            let (tx, rx) = bounded(1);
            tx.try_send(1).unwrap();
            assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
            assert_eq!(tx.len(), 1);
            drop(rx);
            assert_eq!(tx.try_send(3), Err(TrySendError::Disconnected(3)));
            assert_eq!(tx.len(), 1);
        }

        #[test]
        fn len_never_underflows_with_a_blocked_receiver() {
            // The send wakes the blocked receiver; its decrement must not
            // overtake the sender's increment and wrap the depth.
            let (tx, rx) = unbounded::<u32>();
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let receiver = std::thread::spawn(move || while rx.recv().is_ok() {});
            let watcher = {
                let (tx, stop) = (tx.clone(), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut max = 0;
                    while !stop.load(Ordering::Relaxed) {
                        max = max.max(tx.len());
                    }
                    max
                })
            };
            for i in 0..20_000 {
                tx.send(i).unwrap();
                if i % 64 == 0 {
                    std::thread::yield_now();
                }
            }
            stop.store(true, Ordering::Relaxed);
            let max = watcher.join().unwrap();
            drop(tx);
            receiver.join().unwrap();
            assert!(max <= 20_000, "depth wrapped: {max}");
        }

        #[test]
        fn senders_clone_across_threads() {
            let (tx, rx) = unbounded();
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let tx = tx.clone();
                    std::thread::spawn(move || tx.send(i).unwrap())
                })
                .collect();
            drop(tx);
            for h in handles {
                h.join().unwrap();
            }
            let mut got: Vec<i32> = rx.iter().collect();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3]);
        }
    }
}
