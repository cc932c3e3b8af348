//! Instrumented, closeable work queues.
//!
//! Queues connect pipeline stages and carry the open workload into the
//! application. They support the drain idiom the paper's `FiniCB`
//! callbacks implement with sentinel tokens: *closing* a queue lets
//! consumers keep dequeuing until it is empty, after which they observe
//! [`DequeueOutcome::Drained`] and terminate — steering the nest into a
//! globally consistent state.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of a timed dequeue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DequeueOutcome<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue open but empty.
    TimedOut,
    /// The queue is closed and empty; no item will ever arrive.
    Drained,
}

impl<T> DequeueOutcome<T> {
    /// The item, if one was dequeued.
    pub fn item(self) -> Option<T> {
        match self {
            DequeueOutcome::Item(item) => Some(item),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Inner<T> {
    queue: VecDeque<T>,
    closed: bool,
    enqueued: u64,
    dequeued: u64,
}

/// A thread-safe FIFO work queue shared by cloning.
///
/// Clones share the same queue. Occupancy and cumulative counters feed the
/// paper's `LoadCB` callbacks and the executive's monitor.
///
/// # Example
///
/// ```
/// use dope_workload::{DequeueOutcome, WorkQueue};
/// use std::time::Duration;
///
/// let q = WorkQueue::new();
/// q.enqueue("frame");
/// assert_eq!(q.len(), 1);
/// assert_eq!(q.try_dequeue(), Some("frame"));
/// q.close();
/// assert_eq!(
///     q.dequeue_timeout(Duration::from_millis(1)),
///     DequeueOutcome::Drained,
/// );
/// ```
pub struct WorkQueue<T> {
    inner: Arc<(Mutex<Inner<T>>, Condvar)>,
}

impl<T> Clone for WorkQueue<T> {
    fn clone(&self) -> Self {
        WorkQueue {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> std::fmt::Debug for WorkQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let guard = self.inner.0.lock();
        f.debug_struct("WorkQueue")
            .field("len", &guard.queue.len())
            .field("closed", &guard.closed)
            .field("enqueued", &guard.enqueued)
            .field("dequeued", &guard.dequeued)
            .finish()
    }
}

impl<T> Default for WorkQueue<T> {
    fn default() -> Self {
        WorkQueue::new()
    }
}

impl<T> WorkQueue<T> {
    /// An empty, open queue.
    #[must_use]
    pub fn new() -> Self {
        WorkQueue {
            inner: Arc::new((
                Mutex::new(Inner {
                    queue: VecDeque::new(),
                    closed: false,
                    enqueued: 0,
                    dequeued: 0,
                }),
                Condvar::new(),
            )),
        }
    }

    /// Enqueues an item. Returns `false` (dropping nothing — the item is
    /// returned to the caller via `Err`) if the queue is closed.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue is closed.
    pub fn enqueue(&self, item: T) -> Result<(), T> {
        let (lock, cvar) = &*self.inner;
        let mut inner = lock.lock();
        if inner.closed {
            return Err(item);
        }
        inner.queue.push_back(item);
        inner.enqueued += 1;
        drop(inner);
        cvar.notify_one();
        Ok(())
    }

    /// Dequeues without blocking.
    pub fn try_dequeue(&self) -> Option<T> {
        let (lock, _) = &*self.inner;
        let mut inner = lock.lock();
        let item = inner.queue.pop_front();
        if item.is_some() {
            inner.dequeued += 1;
        }
        item
    }

    /// Dequeues, waiting up to `timeout` for an item.
    ///
    /// The bound holds across wake-ups that find the queue empty (a
    /// spurious wake-up, or an item another consumer took first): each
    /// one waits only for what is left of `timeout`.
    ///
    /// Returns [`DequeueOutcome::Drained`] once the queue is closed *and*
    /// empty, so consumers drain residual items before terminating.
    pub fn dequeue_timeout(&self, timeout: Duration) -> DequeueOutcome<T> {
        let (lock, cvar) = &*self.inner;
        let mut inner = lock.lock();
        // Read the clock only once the caller actually has to wait.
        let mut deadline = None;
        loop {
            if let Some(item) = inner.queue.pop_front() {
                inner.dequeued += 1;
                return DequeueOutcome::Item(item);
            }
            if inner.closed {
                return DequeueOutcome::Drained;
            }
            let now = Instant::now();
            let deadline = *deadline.get_or_insert_with(|| now + timeout);
            let left = deadline.saturating_duration_since(now);
            if left.is_zero() {
                return DequeueOutcome::TimedOut;
            }
            cvar.wait_for(&mut inner, left);
        }
    }

    /// Dequeues, blocking until an item arrives or the queue drains.
    ///
    /// Returns `None` once the queue is closed and empty.
    pub fn dequeue(&self) -> Option<T> {
        loop {
            match self.dequeue_timeout(Duration::from_millis(50)) {
                DequeueOutcome::Item(item) => return Some(item),
                DequeueOutcome::Drained => return None,
                DequeueOutcome::TimedOut => {}
            }
        }
    }

    /// Closes the queue: no further enqueues; consumers drain then stop.
    pub fn close(&self) {
        let (lock, cvar) = &*self.inner;
        lock.lock().closed = true;
        cvar.notify_all();
    }

    /// `true` once [`WorkQueue::close`] has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.inner.0.lock().closed
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.0.lock().queue.len()
    }

    /// `true` if no items are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current occupancy as a float — the shape `LoadCB` callbacks return.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.len() as f64
    }

    /// Items enqueued since creation.
    #[must_use]
    pub fn total_enqueued(&self) -> u64 {
        self.inner.0.lock().enqueued
    }

    /// Items dequeued since creation.
    #[must_use]
    pub fn total_dequeued(&self) -> u64 {
        self.inner.0.lock().dequeued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order() {
        let q = WorkQueue::new();
        for i in 0..5 {
            q.enqueue(i).unwrap();
        }
        let drained: Vec<i32> = std::iter::from_fn(|| q.try_dequeue()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn counters_track_traffic() {
        let q = WorkQueue::new();
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        let _ = q.try_dequeue();
        assert_eq!(q.total_enqueued(), 2);
        assert_eq!(q.total_dequeued(), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.occupancy(), 1.0);
    }

    #[test]
    fn enqueue_after_close_returns_item() {
        let q = WorkQueue::new();
        q.close();
        assert_eq!(q.enqueue(9), Err(9));
    }

    #[test]
    fn drain_after_close_yields_residual_items() {
        let q = WorkQueue::new();
        q.enqueue("a").unwrap();
        q.close();
        assert_eq!(
            q.dequeue_timeout(Duration::from_millis(1)),
            DequeueOutcome::Item("a")
        );
        assert_eq!(
            q.dequeue_timeout(Duration::from_millis(1)),
            DequeueOutcome::Drained
        );
    }

    #[test]
    fn timeout_on_open_empty_queue() {
        let q: WorkQueue<u8> = WorkQueue::new();
        assert_eq!(
            q.dequeue_timeout(Duration::from_millis(1)),
            DequeueOutcome::TimedOut
        );
    }

    #[test]
    fn blocking_dequeue_wakes_on_enqueue() {
        let q = WorkQueue::new();
        let q2 = q.clone();
        let consumer = thread::spawn(move || q2.dequeue());
        thread::sleep(Duration::from_millis(10));
        q.enqueue(42u32).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn blocking_dequeue_returns_none_when_drained() {
        let q: WorkQueue<u8> = WorkQueue::new();
        let q2 = q.clone();
        let consumer = thread::spawn(move || q2.dequeue());
        thread::sleep(Duration::from_millis(5));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn clones_share_state() {
        let q = WorkQueue::new();
        let q2 = q.clone();
        q.enqueue(1).unwrap();
        assert_eq!(q2.len(), 1);
        q2.close();
        assert!(q.is_closed());
    }

    #[test]
    fn many_producers_one_consumer() {
        let q = WorkQueue::new();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = q.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        q.enqueue(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut got = Vec::new();
        while let Some(v) = q.dequeue() {
            got.push(v);
        }
        assert_eq!(got.len(), 400);
        assert_eq!(q.total_dequeued(), 400);
    }

    /// Enqueues an item and takes it back under one lock hold: the
    /// waiting consumer is woken but always finds the queue empty.
    fn enqueue_and_steal<T: Default>(q: &WorkQueue<T>) {
        let (lock, cvar) = &*q.inner;
        let mut inner = lock.lock();
        inner.queue.push_back(T::default());
        inner.enqueued += 1;
        cvar.notify_one();
        let _stolen = inner.queue.pop_front();
        inner.dequeued += 1;
    }

    #[test]
    fn timed_dequeue_honours_its_bound_despite_empty_wakeups() {
        let q: WorkQueue<u8> = WorkQueue::new();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let thief = {
            let (q, done) = (q.clone(), Arc::clone(&done));
            thread::spawn(move || {
                // Wake the consumer every 2 ms for at most 2 s: far more
                // often than its 40 ms timeout, and far longer.
                let t0 = Instant::now();
                while !done.load(std::sync::atomic::Ordering::Acquire)
                    && t0.elapsed() < Duration::from_secs(2)
                {
                    enqueue_and_steal(&q);
                    thread::sleep(Duration::from_millis(2));
                }
            })
        };
        let t0 = Instant::now();
        let outcome = q.dequeue_timeout(Duration::from_millis(40));
        let waited = t0.elapsed();
        done.store(true, std::sync::atomic::Ordering::Release);
        thief.join().unwrap();
        assert_eq!(outcome, DequeueOutcome::TimedOut);
        assert!(q.total_enqueued() > 1, "the thief woke the consumer");
        assert!(
            waited < Duration::from_millis(1000),
            "a 40 ms dequeue_timeout waited {waited:?}"
        );
    }

    #[test]
    fn outcome_item_accessor() {
        assert_eq!(DequeueOutcome::Item(3).item(), Some(3));
        assert_eq!(DequeueOutcome::<i32>::TimedOut.item(), None);
        assert_eq!(DequeueOutcome::<i32>::Drained.item(), None);
    }
}
