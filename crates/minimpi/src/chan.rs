//! A small MPMC channel built on `std` (`Mutex<VecDeque>` + `Condvar`).
//!
//! This replaces the external `crossbeam::channel` dependency so the
//! workspace builds fully offline. Only the subset the communicator
//! needs is provided: unbounded FIFO queues, cloneable senders, a
//! receiver that is `Sync` (rank 0 shares the collective-star receiver
//! behind an `Arc`), and disconnect detection on both ends.
//!
//! Semantics match `crossbeam::channel::unbounded` where it matters:
//!
//! * `send` never blocks; it fails only when every receiver is gone;
//! * `recv` blocks until a message arrives and fails only when the
//!   queue is empty **and** every sender is gone;
//! * per-pair FIFO ordering is preserved (single lock per channel).
//!
//! Two ways to wait. [`Receiver::recv`] / [`Receiver::recv_timeout`]
//! park on the condvar at once — right for the world monitor and other
//! control-plane waits, which sleep for milliseconds. The communicator's
//! data plane uses [`Receiver::recv_polled`] /
//! [`Receiver::recv_timeout_polled`] instead: they first watch a
//! lock-free "queued" hint for a bounded budget (a short `spin_loop`
//! burst, then `yield_now`, repeated), and park only if nothing arrived
//! in time. A peer rank that answers within the budget then costs no
//! futex sleep/wake on either side — a sender skips the wake-up syscall
//! whenever no receiver is parked.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a data-plane receive polls before it parks: the default
/// budget of [`Receiver::recv_polled`] callers in the communicator.
///
/// Measured on a 2-vCPU Xeon host with the `relax-small` benchmark
/// (2 ranks): a one-value allreduce costs ~18 µs when its two hops park
/// and ~2 µs when they poll. Over four interleaved 15 s rounds the median
/// step rate was 204 steps/s at 0 µs (one spin burst only), 213 at 25,
/// 223 at 50, 221 at 100 and 222 at 200 µs — 50 µs is the smallest budget
/// on the plateau. Anything slower than the budget (a peer still
/// computing, a checkpoint) parks, so an idle rank burns at most 50 µs
/// of CPU per receive, and the poll yields the CPU between spin bursts,
/// so ranks that outnumber CPUs still make progress.
pub(crate) const POLL_BUDGET: Duration = Duration::from_micros(50);

/// `spin_loop` hints per burst between `yield_now` calls (a few µs).
const SPINS_PER_BURST: u32 = 64;

/// Error returned by [`Sender::send`] when all receivers have hung up.
/// Carries the unsent message back to the caller.
#[derive(Debug)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// all senders have hung up.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline elapsed with the queue still empty.
    Timeout,
    /// Every sender hung up with the queue empty (same as [`RecvError`]).
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers blocked in a condvar wait; a send with none parked
    /// skips the wake-up.
    parked: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    avail: Condvar,
    /// Queue length as of the last push/pop — a lock-free hint for
    /// polling receivers, always written under the lock. Its `Release`
    /// stores pair with the poller's `Acquire` loads; the poller then
    /// takes the message itself under the lock, so the hint publishes
    /// no data of its own.
    queued: AtomicUsize,
    /// Set (`Release`) once the last sender is gone, so a poller stops
    /// early and takes the lock to see the hang-up.
    hung_up: AtomicBool,
}

impl<T> Shared<T> {
    /// Acquire the channel lock, **recovering from poisoning**. The queue
    /// state is a plain `VecDeque` plus counters — every mutation is
    /// a single push/pop/increment with no intermediate invalid states —
    /// so a guard recovered from a panicking peer is always structurally
    /// valid. Without this, one rank's panic (e.g. an injected fault)
    /// poisons the mutex and every *healthy* peer dies with an opaque
    /// "channel poisoned" panic instead of observing an orderly hang-up.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pop the queue head, keeping the `queued` hint in step.
    fn pop(&self, st: &mut State<T>) -> Option<T> {
        let msg = st.queue.pop_front();
        if msg.is_some() {
            self.queued.store(st.queue.len(), Ordering::Release);
        }
        msg
    }

    /// Park on the condvar until notified or `deadline` (counted in
    /// `parked` so senders know to wake us).
    fn park<'a>(
        &self,
        mut st: MutexGuard<'a, State<T>>,
        deadline: Option<Instant>,
    ) -> MutexGuard<'a, State<T>> {
        st.parked += 1;
        let mut st = match deadline {
            None => self.avail.wait(st).unwrap_or_else(|e| e.into_inner()),
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                self.avail
                    .wait_timeout(st, left)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
        };
        st.parked -= 1;
        st
    }
}

/// Create an unbounded FIFO channel; both halves start with one handle.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            parked: 0,
        }),
        avail: Condvar::new(),
        queued: AtomicUsize::new(0),
        hung_up: AtomicBool::new(false),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

/// The sending half; cloneable, `Send + Sync`.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Enqueue `msg`. Never blocks. Fails iff every [`Receiver`] has
    /// been dropped, handing the message back.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.lock();
        if st.receivers == 0 {
            return Err(SendError(msg));
        }
        st.queue.push_back(msg);
        self.shared.queued.store(st.queue.len(), Ordering::Release);
        let wake = st.parked > 0;
        drop(st);
        if wake {
            self.shared.avail.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let n = {
            let mut st = self.shared.lock();
            st.senders -= 1;
            st.senders
        };
        if n == 0 {
            // Wake blocked and polling receivers so they can observe the
            // hang-up.
            self.shared.hung_up.store(true, Ordering::Release);
            self.shared.avail.notify_all();
        }
    }
}

/// The receiving half; cloneable and `Sync`, so it can be shared via
/// `Arc` (multiple consumers race for messages under the channel lock).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Block until a message is available and dequeue it. Fails iff the
    /// queue is empty and every [`Sender`] has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// [`Receiver::recv`], polling for up to `budget` before parking.
    pub fn recv_polled(&self, budget: Duration) -> Result<T, RecvError> {
        self.poll(Instant::now() + budget);
        self.recv()
    }

    /// Dequeue a message if one is immediately available. Never blocks.
    /// Used to drain stale traffic at an epoch fence, where every rank is
    /// quiesced and anything still queued belongs to a dead incarnation.
    pub fn try_recv(&self) -> Option<T> {
        self.shared.pop(&mut self.shared.lock())
    }

    /// Like [`Receiver::recv`] but gives up after `timeout`. Used by the
    /// fault-tolerant communicator so a dropped/lost message surfaces as
    /// a diagnosable timeout instead of an unbounded hang.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// [`Receiver::recv_timeout`], polling for up to `budget` before
    /// parking. The polling counts against `timeout`.
    pub fn recv_timeout_polled(
        &self,
        timeout: Duration,
        budget: Duration,
    ) -> Result<T, RecvTimeoutError> {
        let start = Instant::now();
        let deadline = start + timeout;
        self.poll(deadline.min(start + budget));
        self.recv_until(Some(deadline))
    }

    /// Watch the lock-free hints until a message is queued, every sender
    /// is gone, or `until` passes. Never takes the lock.
    fn poll(&self, until: Instant) {
        let sh = &*self.shared;
        let ready = || sh.queued.load(Ordering::Acquire) > 0 || sh.hung_up.load(Ordering::Acquire);
        loop {
            for _ in 0..SPINS_PER_BURST {
                if ready() {
                    return;
                }
                std::hint::spin_loop();
            }
            if Instant::now() >= until {
                return;
            }
            std::thread::yield_now();
        }
    }

    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut st = self.shared.lock();
        loop {
            if let Some(msg) = self.shared.pop(&mut st) {
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(RecvTimeoutError::Timeout);
            }
            st = self.shared.park(st, deadline);
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn recv_errors_after_all_senders_drop() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_after_receiver_drops() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded::<u32>();
        std::thread::scope(|s| {
            let h = s.spawn(move || rx.recv().unwrap());
            std::thread::sleep(std::time::Duration::from_millis(10));
            tx.send(42).unwrap();
            assert_eq!(h.join().unwrap(), 42);
        });
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn polled_recv_timeout_fires_near_its_deadline() {
        // Nothing is ever sent: both waits must give up at (not before,
        // and not long after) the deadline, polling time included.
        let (_tx, rx) = unbounded::<u32>();
        let timeout = crate::scaled_ms(30);
        let slack = crate::scaled_ms(250);
        for budget in [POLL_BUDGET, timeout * 2] {
            let t0 = Instant::now();
            assert_eq!(
                rx.recv_timeout_polled(timeout, budget),
                Err(RecvTimeoutError::Timeout)
            );
            let waited = t0.elapsed();
            assert!(
                waited >= timeout,
                "returned early: {waited:?} < {timeout:?}"
            );
            assert!(waited < timeout + slack, "overslept: {waited:?}");
        }
        let t0 = Instant::now();
        assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
        assert!(t0.elapsed() >= timeout);
    }

    #[test]
    fn polled_recv_delivers_a_message_sent_mid_poll() {
        let (tx, rx) = unbounded::<u32>();
        std::thread::scope(|s| {
            let h = s.spawn(|| rx.recv_polled(Duration::from_secs(60)));
            std::thread::sleep(Duration::from_millis(5));
            tx.send(5).unwrap();
            assert_eq!(h.join().unwrap(), Ok(5));
        });
        // A message already queued is taken without polling at all.
        tx.send(6).unwrap();
        assert_eq!(rx.recv_timeout_polled(Duration::ZERO, POLL_BUDGET), Ok(6));
    }

    #[test]
    fn dropping_last_sender_ends_a_poll_with_disconnected() {
        // The budgets are far longer than the test may take: the receiver
        // must notice the hang-up while it is still polling, not after.
        let budget = Duration::from_secs(60);
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let h = s.spawn(|| rx.recv_polled(budget));
            std::thread::sleep(Duration::from_millis(10));
            drop(tx);
            std::thread::sleep(Duration::from_millis(10));
            drop(tx2);
            assert_eq!(h.join().unwrap(), Err(RecvError));
        });
        assert!(
            t0.elapsed() < crate::scaled_ms(5_000),
            "poll outlived the hang-up"
        );

        let (tx, rx) = unbounded::<u32>();
        std::thread::scope(|s| {
            let h = s.spawn(|| rx.recv_timeout_polled(budget, budget));
            std::thread::sleep(Duration::from_millis(10));
            drop(tx);
            assert_eq!(h.join().unwrap(), Err(RecvTimeoutError::Disconnected));
        });
    }

    #[test]
    fn poisoned_channel_still_delivers_and_disconnects() {
        // A thread panics while holding the channel lock: peers must keep
        // working (queue state is always valid) instead of cascading the
        // panic through `.expect("channel poisoned")`.
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        let shared = tx.shared.clone();
        let h = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("injected rank failure");
        });
        assert!(h.join().is_err());
        assert!(
            tx.shared.state.is_poisoned(),
            "mutex must actually be poisoned"
        );
        // Healthy side: sends and receives keep working on the recovered
        // guard, then a clean hang-up — no panic cascade.
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn shared_receiver_is_sync() {
        let (tx, rx) = unbounded::<u32>();
        let rx = Arc::new(rx);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut got: Vec<u32> = Vec::new();
        std::thread::scope(|s| {
            let a = {
                let rx = rx.clone();
                s.spawn(move || {
                    let mut v = Vec::new();
                    while let Ok(x) = rx.recv() {
                        v.push(x);
                    }
                    v
                })
            };
            let b = s.spawn(move || {
                let mut v = Vec::new();
                while let Ok(x) = rx.recv() {
                    v.push(x);
                }
                v
            });
            got.extend(a.join().unwrap());
            got.extend(b.join().unwrap());
        });
        got.sort();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
