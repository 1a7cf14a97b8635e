//! The bounded accept/work queue.
//!
//! Connections accepted off the listener do not go straight to a
//! worker; they enter a [`BoundedQueue`]. Below capacity every arrival
//! is admitted; at capacity the queue sheds, handing the item back so
//! the caller can answer with an explicit 503 instead of letting
//! latency grow without bound.
//!
//! Admitted items leave in FIFO order; shedding never reorders or
//! drops an admitted item.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking MPMC queue holding at most `capacity` items.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates an empty queue that sheds arrivals at `capacity` items.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Locks the queue state, recovering from poisoning: a panicking
    /// worker must not wedge the accept queue for every other thread.
    fn state(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Offers one item. A shed hands the item back as `Err` (the caller
    /// owns the explicit 503 response); a closed queue sheds as if full.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.state();
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (FIFO) or the queue is closed
    /// and drained; `None` means shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.state();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = match self.ready.wait(inner) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Closes the queue: pending items still drain, new offers shed,
    /// and blocked poppers wake with `None` once empty.
    pub fn close(&self) {
        self.state().closed = true;
        self.ready.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state().items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn admits_then_sheds_at_capacity() {
        let queue = BoundedQueue::new(3);
        for i in 0..3 {
            assert!(queue.push(i).is_ok(), "below capacity admits");
        }
        assert_eq!(
            queue.push(99),
            Err(99),
            "shed items come back to the caller"
        );
        assert_eq!(queue.len(), 3);
    }

    #[test]
    fn close_wakes_poppers_and_sheds_new_offers() {
        let queue = BoundedQueue::new(8);
        assert!(queue.push(1).is_ok());
        queue.close();
        assert_eq!(queue.pop(), Some(1), "queued items still drain");
        assert_eq!(queue.pop(), None, "then shutdown");
        assert_eq!(queue.push(2), Err(2));
    }

    proptest! {
        /// The queue never holds more than `capacity` items, whatever
        /// the interleaving of pushes and pops.
        #[test]
        fn never_exceeds_capacity(
            capacity in 1usize..16,
            ops in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let queue = BoundedQueue::new(capacity);
            let mut next = 0u32;
            for is_push in ops {
                if is_push {
                    let _ = queue.push(next);
                    next += 1;
                } else if !queue.is_empty() {
                    queue.pop();
                }
                prop_assert!(queue.len() <= capacity);
            }
        }

        /// FIFO holds for admitted items: whatever was shed, the items
        /// that did get in come out in exactly their arrival order.
        #[test]
        fn fifo_preserved_for_admitted(
            capacity in 1usize..12,
            pushes in 1usize..100,
        ) {
            let queue = BoundedQueue::new(capacity);
            let mut admitted = Vec::new();
            for i in 0..pushes as u32 {
                if queue.push(i).is_ok() {
                    admitted.push(i);
                }
                // Drain a little mid-stream to vary the depths (pop
                // blocks on an empty queue, so only drain when full).
                if i % 5 == 4 && !queue.is_empty() {
                    let x = queue.pop().unwrap();
                    assert_eq!(x, admitted.remove(0));
                }
            }
            for expect in admitted {
                prop_assert_eq!(queue.pop(), Some(expect));
            }
        }
    }
}
