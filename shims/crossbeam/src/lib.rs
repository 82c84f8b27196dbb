//! Offline subset of `crossbeam`.
//!
//! Provides the multi-producer **multi-consumer** [`channel`] a wire
//! shard's server puts around the round engine — poll batches in from
//! its reader thread, finished rows out to its writer thread
//! (`cia_keylime::remote::serve_round`); the in-process round itself
//! uses no channel. Implemented directly over a `Mutex<VecDeque>` +
//! `Condvar`. Plus a [`thread`] module re-exporting std's scoped
//! threads under crossbeam's names, which the federation's shard
//! fan-out runs on.
//!
//! With the `lock-sanitizer` feature, both primitives additionally
//! record **happens-before edges** into the parking_lot shim's
//! vector-clock race detector: every `send` publishes the sender's
//! clock to the channel and every `recv` inherits it, and the scoped
//! [`thread`] wrappers record fork edges at `spawn` and join edges at
//! `join()`/scope exit. Together with the instrumented locks this lets
//! `racecheck::races()` prove that audited shared state is ordered by
//! synchronization the shims can actually see.

#![forbid(unsafe_code)]

/// MPMC channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// Happens-before identity for the race detector's channel clock.
        #[cfg(feature = "lock-sanitizer")]
        hb: parking_lot::sanitizer::LazyLockId,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            #[cfg(feature = "lock-sanitizer")]
            hb: parking_lot::sanitizer::LazyLockId::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (work-sharing consumers).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Send failed: every receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Receive failed: channel empty and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty, disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Non-blocking receive failure.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender: wake blocked receivers so they observe
                // disconnection. Taking (and releasing) the queue lock
                // first closes the lost-wakeup window: a receiver checks
                // `senders` and parks under that lock, so it has either
                // not checked yet (and will see 0) or is already waiting
                // (and gets this notification).
                drop(self.shared.queue.lock().unwrap_or_else(|e| e.into_inner()));
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> Sender<T> {
        /// Enqueues `value`; fails only when all receivers are dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            // Recorded under the queue lock so a receiver that pops this
            // value (also under the lock) observes the send's clock.
            #[cfg(feature = "lock-sanitizer")]
            parking_lot::racecheck::channel_send(self.shared.hb.get());
            queue.push_back(value);
            drop(queue);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(value) = queue.pop_front() {
                    #[cfg(feature = "lock-sanitizer")]
                    parking_lot::racecheck::channel_recv(self.shared.hb.get());
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                queue = self
                    .shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(value) = queue.pop_front() {
                #[cfg(feature = "lock-sanitizer")]
                parking_lot::racecheck::channel_recv(self.shared.hb.get());
                return Ok(value);
            }
            if self.shared.senders.load(Ordering::SeqCst) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Draining iterator: yields until disconnected.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
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

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn mpmc_fan_out() {
            let (tx, rx) = unbounded::<u32>();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let rx2 = rx.clone();
            let h = std::thread::spawn(move || rx2.iter().count());
            let local = rx.iter().count();
            let remote = h.join().unwrap();
            assert_eq!(local + remote, 100);
        }

        #[test]
        fn recv_disconnects() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        /// Regression: the last `Sender::drop` used to notify without
        /// holding the queue lock, so the notification could land between
        /// a receiver's disconnect check and its wait — and that receiver
        /// slept forever. Each iteration aims the drop at that window
        /// (the receiver raises a flag right before `recv`, the dropper
        /// spins a varying few cycles past it); the watchdog turns a hang
        /// into a failure. It watches *progress*, not total time: 50,000
        /// thread spawns are slow on a busy box, a lost wakeup is stopped.
        #[test]
        fn last_sender_drop_always_wakes_a_parked_receiver() {
            use std::sync::atomic::{AtomicBool, AtomicUsize};
            use std::time::{Duration, Instant};
            const ITERATIONS: usize = 50_000;
            const STALL: Duration = Duration::from_secs(10);
            let completed = Arc::new(AtomicUsize::new(0));
            let published = Arc::clone(&completed);
            let stress = std::thread::spawn(move || {
                for i in 0..ITERATIONS {
                    let (tx, rx) = unbounded::<u8>();
                    let entering = Arc::new(AtomicBool::new(false));
                    let flag = Arc::clone(&entering);
                    let receiver = std::thread::spawn(move || {
                        flag.store(true, Ordering::SeqCst);
                        rx.recv()
                    });
                    while !entering.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    for _ in 0..i % 64 {
                        std::hint::spin_loop();
                    }
                    drop(tx);
                    assert_eq!(receiver.join().unwrap(), Err(RecvError));
                    published.store(i + 1, Ordering::Relaxed);
                }
            });
            let (mut seen, mut since) = (0, Instant::now());
            while !stress.is_finished() {
                std::thread::sleep(Duration::from_millis(10));
                let now = completed.load(Ordering::Relaxed);
                if now > seen {
                    (seen, since) = (now, Instant::now());
                }
                assert!(
                    since.elapsed() < STALL,
                    "a receiver slept through the last sender's drop (iteration {seen})"
                );
            }
            stress.join().unwrap();
        }

        #[test]
        fn send_fails_when_receivers_die() {
            let (tx, rx) = unbounded::<u8>();
            tx.send(9).unwrap();
            drop(rx);
            assert_eq!(tx.send(10), Err(SendError(10)));
        }
    }
}

/// Scoped threads (std re-exports under crossbeam's names).
#[cfg(not(feature = "lock-sanitizer"))]
pub mod thread {
    pub use std::thread::{scope, Scope, ScopedJoinHandle};
}

/// Scoped threads with fork/join happens-before instrumentation.
///
/// Same shape as `std::thread::scope`, but every `spawn` snapshots the
/// parent's vector clock into the child and every `join()` — explicit
/// on the handle or implicit at scope exit — merges the child's final
/// clock back into the joiner. The race detector thus sees the real
/// structured-concurrency ordering: anything a child wrote is ordered
/// before everything the parent does after the scope closes.
#[cfg(feature = "lock-sanitizer")]
pub mod thread {
    use parking_lot::racecheck::{self, Clock};
    use std::sync::{Arc, Mutex as StdMutex};

    /// Instrumented stand-in for `std::thread::Scope`.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
        /// Final clocks of every child, absorbed at scope exit for
        /// handles that were never explicitly joined. A std mutex, not
        /// the shim's: bookkeeping must not record lock edges itself.
        /// (`Arc`, not a borrow — the higher-ranked closure bound on
        /// `std::thread::scope` would otherwise force the borrow out to
        /// `'env`.)
        pending: Arc<StdMutex<Vec<Clock>>>,
    }

    /// Instrumented stand-in for `std::thread::ScopedJoinHandle`.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, (T, Clock)>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread with a fork edge from the spawner.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let parent = racecheck::fork();
            let pending = Arc::clone(&self.pending);
            let inner = self.inner.spawn(move || {
                racecheck::child_start(&parent);
                let out = f();
                let clock = racecheck::child_finish();
                pending
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(clock.clone());
                (out, clock)
            });
            ScopedJoinHandle { inner }
        }
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Joins the child, absorbing its final clock (a panic in the
        /// child left its clock in the scope's pending list, absorbed
        /// at scope exit).
        pub fn join(self) -> std::thread::Result<T> {
            match self.inner.join() {
                Ok((out, clock)) => {
                    racecheck::absorb_join(&clock);
                    Ok(out)
                }
                Err(payload) => Err(payload),
            }
        }

        /// Whether the child has finished running.
        pub fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }

        /// The underlying thread.
        pub fn thread(&self) -> &std::thread::Thread {
            self.inner.thread()
        }
    }

    /// Instrumented stand-in for `std::thread::scope`.
    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
    {
        let pending = Arc::new(StdMutex::new(Vec::new()));
        let out = std::thread::scope(|s| {
            f(&Scope {
                inner: s,
                pending: Arc::clone(&pending),
            })
        });
        // Implicit joins: std::thread::scope has joined every child by
        // now, so absorbing their clocks here is the matching
        // happens-before edge. Double-absorb after an explicit join()
        // is harmless — clock join is idempotent.
        let mut clocks = pending.lock().unwrap_or_else(|e| e.into_inner());
        for clock in clocks.drain(..) {
            racecheck::absorb_join(&clock);
        }
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use parking_lot::RaceCell;

        #[test]
        fn scope_exit_orders_unjoined_children() {
            racecheck::reset();
            let mut cells: Vec<RaceCell<u64>> = (0..4).map(RaceCell::new).collect();
            scope(|s| {
                for cell in cells.iter_mut() {
                    s.spawn(move || cell.set(cell.get() + 1));
                }
            });
            // Parent reads after the scope: ordered via implicit joins.
            let total: u64 = cells.iter().map(|c| *c.get()).sum();
            assert_eq!(total, 1 + 2 + 3 + 4);
            assert!(racecheck::races().is_empty(), "{:?}", racecheck::races());
        }

        #[test]
        fn explicit_join_orders_the_result_path() {
            racecheck::reset();
            let mut cell = RaceCell::new(0u64);
            let doubled = scope(|s| {
                let h = s.spawn(|| {
                    cell.set(21);
                    *cell.get()
                });
                h.join().expect("child") * 2
            });
            assert_eq!(doubled, 42);
            assert!(racecheck::races().is_empty(), "{:?}", racecheck::races());
        }
    }
}
