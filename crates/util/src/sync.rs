//! Synchronization shims over `std::sync`.
//!
//! Replaces the `parking_lot` and `crossbeam::channel` API subsets used
//! by `crates/deploy/src/schedule.rs` and `crates/sim/src/sim.rs`:
//!
//! * [`Mutex`] — `lock()` returns the guard directly (no poison
//!   `Result`); a panicking worker thread must not wedge the whole
//!   deployment, so poisoned locks are recovered transparently.
//! * [`RwLock`] — `read()` / `write()` return guards directly; backs
//!   the simulator's flat host arena.
//! * [`channel`] — an unbounded MPMC channel (`crossbeam::channel`
//!   subset: `unbounded`, cloneable `Sender`/`Receiver`, `send`,
//!   `recv`, `try_recv`, `try_iter`, `iter`) built on a mutex-guarded
//!   queue with disconnect-on-last-drop semantics.

use std::sync::{self, PoisonError};

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
///
/// Poisoning is deliberately ignored: if a thread panics while holding
/// the lock, later lockers simply see the last written state, exactly as
/// with `parking_lot::Mutex`.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> sync::MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns a mutable reference to the value without locking (the
    /// exclusive borrow is proof of unique access).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose `read()` / `write()` return guards
/// directly (no poison `Result`), mirroring [`Mutex`].
///
/// Used by the simulator's host arena: provisioning (rare) takes the
/// write lock to grow the arena, while every per-host operation takes
/// the read lock and then a per-host mutex, so operations on distinct
/// hosts never contend.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns a mutable reference to the value without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

pub mod channel {
    //! A multi-producer multi-consumer FIFO channel, unbounded or
    //! bounded.
    //!
    //! The `crossbeam::channel` API subset the deploy engine needs, over
    //! a `Mutex<VecDeque>` + `Condvar`. Both [`Sender`] and [`Receiver`]
    //! are cloneable; the channel disconnects when the last handle on
    //! either side drops: receivers then drain whatever was already
    //! queued before seeing `Disconnected`, and sends to a
    //! receiver-less channel fail, returning the value.
    //!
    //! A [`bounded`] channel additionally caps the queue: `send` blocks
    //! while the queue is full, and [`Sender::try_send`] reports
    //! [`TrySendError::Full`] instead of blocking — the typed
    //! backpressure the `engage serve` work queue is built on.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Queue capacity; `None` means unbounded.
        cap: Option<usize>,
    }

    impl<T> State<T> {
        fn is_full(&self) -> bool {
            self.cap.is_some_and(|cap| self.queue.len() >= cap)
        }
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        // Signalled when a message arrives or the side counts change.
        available: Condvar,
        // Signalled when a bounded queue frees a slot (or loses its
        // last receiver, so blocked senders can observe the disconnect).
        space: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                cap,
            }),
            available: Condvar::new(),
            space: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Creates an unbounded channel, returning the first sender/receiver
    /// pair. Clone either handle for more producers or consumers.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// Creates a bounded channel holding at most `cap` queued messages
    /// (`cap` is clamped to at least 1). `send` blocks while the queue
    /// is full; [`Sender::try_send`] returns [`TrySendError::Full`]
    /// instead, carrying the rejected value back to the caller.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap.max(1)))
    }

    /// Error returned by [`Sender::send`] when every receiver is gone;
    /// carries the unsent value back to the caller.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T: fmt::Debug> std::error::Error for SendError<T> {}

    /// Error returned by [`Sender::try_send`]; carries the rejected
    /// value back to the caller either way.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded queue is at capacity right now.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// The value that was not sent.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
            }
        }

        /// `true` for the [`TrySendError::Full`] case.
        pub fn is_full(&self) -> bool {
            matches!(self, TrySendError::Full(_))
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "sending on a full channel"),
                TrySendError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
            }
        }
    }

    impl<T: fmt::Debug> std::error::Error for TrySendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty
    /// and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now, but senders still exist.
        Empty,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "channel empty"),
                TryRecvError::Disconnected => write!(f, "channel disconnected"),
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// The producing half; cloneable for multiple producers.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing only if no receiver remains. On a
        /// bounded channel this blocks while the queue is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                if !st.is_full() {
                    st.queue.push_back(value);
                    drop(st);
                    self.shared.available.notify_one();
                    return Ok(());
                }
                st = self
                    .shared
                    .space
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Enqueues `value` without blocking: a full bounded queue
        /// returns [`TrySendError::Full`] immediately (typed
        /// backpressure), a receiver-less channel
        /// [`TrySendError::Disconnected`].
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut st = self.shared.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if st.is_full() {
                return Err(TrySendError::Full(value));
            }
            st.queue.push_back(value);
            drop(st);
            self.shared.available.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                // Wake blocked receivers so they observe the disconnect.
                self.shared.available.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    /// The consuming half; cloneable for multiple consumers.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or the channel disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    self.shared.space.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .shared
                    .available
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Pops a queued message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.lock();
            match st.queue.pop_front() {
                Some(v) => {
                    drop(st);
                    self.shared.space.notify_one();
                    Ok(v)
                }
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Iterator draining every message available without blocking.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }

        /// Blocking iterator: yields until the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// `true` if nothing is currently queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                // Wake senders blocked on a full bounded queue so they
                // observe the disconnect instead of waiting forever.
                self.shared.space.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// See [`Receiver::try_iter`].
    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.try_recv().ok()
        }
    }

    /// See [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn mutex_lock_and_into_inner() {
        let m = Mutex::new(vec![1, 2]);
        m.lock().push(3);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn bounded_try_send_reports_full_then_recovers() {
        let (tx, rx) = channel::bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        let err = tx.try_send(3).unwrap_err();
        assert!(err.is_full());
        assert_eq!(err.into_inner(), 3);
        assert_eq!(rx.recv(), Ok(1));
        // recv freed a slot, so the next try_send succeeds.
        tx.try_send(3).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn bounded_send_blocks_until_slot_frees() {
        let (tx, rx) = channel::bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2));
        // The sender is parked on the full queue until we drain a slot.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn bounded_send_observes_receiver_drop() {
        let (tx, rx) = channel::bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        // The blocked sender must wake and report the disconnect.
        assert_eq!(t.join().unwrap(), Err(channel::SendError(2)));
    }

    #[test]
    fn bounded_try_send_reports_disconnect_over_full() {
        let (tx, rx) = channel::bounded::<u32>(1);
        tx.try_send(1).unwrap();
        drop(rx);
        let err = tx.try_send(2).unwrap_err();
        assert!(!err.is_full());
        assert_eq!(err.into_inner(), 2);
    }

    #[test]
    fn bounded_cap_is_clamped_to_one() {
        let (tx, _rx) = channel::bounded(0);
        tx.try_send(1).unwrap();
        assert!(tx.try_send(2).unwrap_err().is_full());
    }

    #[test]
    fn bounded_exactly_once_across_threads() {
        let (tx, rx) = channel::bounded::<u32>(4);
        let mut producers = Vec::new();
        for p in 0..4u32 {
            let tx = tx.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(p * 100 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let rx = rx.clone();
            consumers.push(std::thread::spawn(move || rx.iter().collect::<Vec<_>>()));
        }
        drop(rx);
        let mut seen: Vec<u32> = Vec::new();
        for p in producers {
            p.join().unwrap();
        }
        for c in consumers {
            seen.extend(c.join().unwrap());
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..400).collect::<Vec<_>>());
    }
}
