//! Bounded MPMC queue with explicit overflow policy and always-on drop
//! accounting.
//!
//! The network source blocks put a reader thread on one side of this
//! queue and the flowgraph scheduler on the other. Capacity is the
//! backpressure knob: [`OverflowPolicy::Block`] propagates pressure to
//! the producer, the two `Drop*` policies shed load (the right call for
//! live sample streams, where stale IQ is worthless) while counting
//! every shed item.
//!
//! Drop counts are plain atomics rather than telemetry [`mimonet_runtime::Counter`]s
//! on purpose: dropping is *semantics* (it changes what the receiver
//! decodes), so the accounting must survive `telemetry-off` builds. The
//! transport blocks mirror the count into
//! `BlockTelemetry::queue_drops`, so an instrumented flowgraph sees it
//! too.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// What `push` does when the queue is at capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Wait for space — backpressure the producer.
    Block,
    /// Reject the incoming item.
    DropNewest,
    /// Evict the oldest queued item to make room — live streams keep the
    /// freshest samples.
    DropOldest,
}

/// A bounded wait for queue space expired — the typed alternative to
/// [`OverflowPolicy::Block`]'s unbounded wait. Carries how long the
/// producer waited so the caller can log or escalate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueTimeout {
    /// How long the producer waited before giving up.
    pub waited: Duration,
}

impl std::fmt::Display for QueueTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "queue full after waiting {:?}", self.waited)
    }
}

impl std::error::Error for QueueTimeout {}

/// Outcome of a [`BoundedQueue::push`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// The item was enqueued without loss.
    Accepted,
    /// The queue was full and closed to the incoming item.
    DroppedNewest,
    /// The oldest queued item was evicted for this one.
    DroppedOldest,
    /// The queue is closed; the item was discarded.
    Closed,
}

#[derive(Default)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Cumulative queue statistics (always on; see module docs).
#[derive(Debug, Default)]
pub struct QueueStats {
    pushed: AtomicU64,
    popped: AtomicU64,
    dropped: AtomicU64,
    timeouts: AtomicU64,
    highwater: AtomicU64,
}

impl QueueStats {
    /// Items accepted into the queue.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }
    /// Items taken out of the queue.
    pub fn popped(&self) -> u64 {
        self.popped.load(Ordering::Relaxed)
    }
    /// Items lost to overflow (either drop policy).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
    /// [`BoundedQueue::push_timeout`] calls that gave up waiting — each
    /// one is an item the producer had to shed or re-route.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
    /// Highest occupancy observed since construction.
    pub fn highwater(&self) -> u64 {
        self.highwater.load(Ordering::Relaxed)
    }
}

/// The bounded queue. Clone-free: share it through an `Arc`.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    policy: OverflowPolicy,
    stats: QueueStats,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    pub fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        assert!(capacity > 0, "queue capacity must be nonzero");
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            policy,
            stats: QueueStats::default(),
        }
    }

    /// Capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues an item per the overflow policy.
    pub fn push(&self, item: T) -> PushOutcome {
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return PushOutcome::Closed;
        }
        let mut outcome = PushOutcome::Accepted;
        if g.items.len() >= self.capacity {
            match self.policy {
                OverflowPolicy::Block => {
                    while g.items.len() >= self.capacity && !g.closed {
                        g = self.not_full.wait(g).unwrap();
                    }
                    if g.closed {
                        return PushOutcome::Closed;
                    }
                }
                OverflowPolicy::DropNewest => {
                    self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                    return PushOutcome::DroppedNewest;
                }
                OverflowPolicy::DropOldest => {
                    g.items.pop_front();
                    self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                    outcome = PushOutcome::DroppedOldest;
                }
            }
        }
        g.items.push_back(item);
        self.stats.pushed.fetch_add(1, Ordering::Relaxed);
        self.stats
            .highwater
            .fetch_max(g.items.len() as u64, Ordering::Relaxed);
        drop(g);
        self.not_empty.notify_one();
        outcome
    }

    /// Enqueues like [`push`](Self::push), but under
    /// [`OverflowPolicy::Block`] waits at most `timeout` for space
    /// instead of blocking forever. On expiry the item is discarded and
    /// a typed [`QueueTimeout`] is returned; the `timeouts` stat counts
    /// it. Under the drop policies this is exactly `push` (they never
    /// wait).
    pub fn push_timeout(&self, item: T, timeout: Duration) -> Result<PushOutcome, QueueTimeout> {
        if self.policy != OverflowPolicy::Block {
            return Ok(self.push(item));
        }
        let start = std::time::Instant::now();
        let mut g = self.inner.lock().unwrap();
        while g.items.len() >= self.capacity && !g.closed {
            let waited = start.elapsed();
            let Some(left) = timeout.checked_sub(waited) else {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(QueueTimeout { waited });
            };
            let (guard, res) = self.not_full.wait_timeout(g, left).unwrap();
            g = guard;
            if res.timed_out() && g.items.len() >= self.capacity && !g.closed {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(QueueTimeout {
                    waited: start.elapsed(),
                });
            }
        }
        if g.closed {
            return Ok(PushOutcome::Closed);
        }
        g.items.push_back(item);
        self.stats.pushed.fetch_add(1, Ordering::Relaxed);
        self.stats
            .highwater
            .fetch_max(g.items.len() as u64, Ordering::Relaxed);
        drop(g);
        self.not_empty.notify_one();
        Ok(PushOutcome::Accepted)
    }

    /// Dequeues without waiting.
    pub fn try_pop(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        let item = g.items.pop_front();
        if item.is_some() {
            self.stats.popped.fetch_add(1, Ordering::Relaxed);
            drop(g);
            self.not_full.notify_one();
        }
        item
    }

    /// Dequeues, waiting up to `timeout` for an item. `None` on timeout
    /// or when the queue is closed and drained.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        if g.items.is_empty() && !g.closed {
            let (guard, _) = self.not_empty.wait_timeout(g, timeout).unwrap();
            g = guard;
        }
        let item = g.items.pop_front();
        if item.is_some() {
            self.stats.popped.fetch_add(1, Ordering::Relaxed);
            drop(g);
            self.not_full.notify_one();
        }
        item
    }

    /// Closes the queue: pending items stay poppable, new pushes are
    /// refused, and all waiters wake.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// `true` once closed (items may still be queued).
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// `true` when closed and fully drained — the consumer's end-of-stream.
    pub fn is_terminated(&self) -> bool {
        let g = self.inner.lock().unwrap();
        g.closed && g.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_stats() {
        let q = BoundedQueue::new(4, OverflowPolicy::DropNewest);
        for i in 0..3 {
            assert_eq!(q.push(i), PushOutcome::Accepted);
        }
        assert_eq!(q.try_pop(), Some(0));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.stats().pushed(), 3);
        assert_eq!(q.stats().popped(), 2);
        assert_eq!(q.stats().highwater(), 3);
        assert_eq!(q.stats().dropped(), 0);
    }

    #[test]
    fn drop_newest_sheds_the_incoming_item() {
        let q = BoundedQueue::new(2, OverflowPolicy::DropNewest);
        q.push(1);
        q.push(2);
        assert_eq!(q.push(3), PushOutcome::DroppedNewest);
        assert_eq!(q.stats().dropped(), 1);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest() {
        let q = BoundedQueue::new(2, OverflowPolicy::DropOldest);
        q.push(1);
        q.push(2);
        assert_eq!(q.push(3), PushOutcome::DroppedOldest);
        assert_eq!(q.stats().dropped(), 1);
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(3));
    }

    #[test]
    fn block_policy_backpressures_until_space() {
        let q = Arc::new(BoundedQueue::new(1, OverflowPolicy::Block));
        q.push(0);
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.push(1));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.try_pop(), Some(0));
        assert_eq!(t.join().unwrap(), PushOutcome::Accepted);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.stats().dropped(), 0);
    }

    #[test]
    fn close_wakes_consumers_and_refuses_producers() {
        let q = Arc::new(BoundedQueue::<u32>::new(2, OverflowPolicy::Block));
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().unwrap(), None);
        assert_eq!(q.push(9), PushOutcome::Closed);
        assert!(q.is_terminated());
    }

    #[test]
    fn push_timeout_returns_typed_error_and_counts_it() {
        let q = BoundedQueue::new(1, OverflowPolicy::Block);
        assert_eq!(
            q.push_timeout(1, Duration::from_millis(5)),
            Ok(PushOutcome::Accepted)
        );
        let err = q.push_timeout(2, Duration::from_millis(5)).unwrap_err();
        assert!(err.waited >= Duration::from_millis(5));
        assert_eq!(q.stats().timeouts(), 1);
        assert_eq!(q.stats().pushed(), 1);
        // Space frees up: the next bounded push succeeds.
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(
            q.push_timeout(3, Duration::from_millis(5)),
            Ok(PushOutcome::Accepted)
        );
        assert_eq!(q.stats().timeouts(), 1);
    }

    #[test]
    fn push_timeout_succeeds_once_a_consumer_frees_space() {
        let q = Arc::new(BoundedQueue::new(1, OverflowPolicy::Block));
        q.push(0);
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.push_timeout(1, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.try_pop(), Some(0));
        assert_eq!(t.join().unwrap(), Ok(PushOutcome::Accepted));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.stats().timeouts(), 0);
    }

    #[test]
    fn push_timeout_under_drop_policy_never_waits() {
        let q = BoundedQueue::new(1, OverflowPolicy::DropNewest);
        q.push(1);
        assert_eq!(
            q.push_timeout(2, Duration::from_secs(10)),
            Ok(PushOutcome::DroppedNewest)
        );
        assert_eq!(q.stats().timeouts(), 0);
    }

    #[test]
    fn close_drains_remaining_items_first() {
        let q = BoundedQueue::new(4, OverflowPolicy::Block);
        q.push(1);
        q.close();
        assert!(!q.is_terminated());
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        assert!(q.is_terminated());
    }
}
