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
    dropped: AtomicU64,
}

impl QueueStats {
    /// Items lost to overflow (either drop policy).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
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

    /// Cumulative statistics.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
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
        drop(g);
        self.not_empty.notify_one();
        outcome
    }

    /// Dequeues without waiting.
    pub fn try_pop(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        let item = g.items.pop_front();
        if item.is_some() {
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
    fn close_drains_remaining_items_first() {
        let q = BoundedQueue::new(4, OverflowPolicy::Block);
        q.push(1);
        q.close();
        assert!(!q.is_terminated());
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        assert!(q.is_terminated());
    }
}
