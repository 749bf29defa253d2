//! [`SmallReadyQueue`]: a [`ReadyQueue`](crate::ReadyQueue) whose first
//! few entries live inline.
//!
//! A node's own schedules — pending writebacks, C-Switch transfers,
//! staged memory responses — hold a handful of items at a time, and the
//! node owning them is visited once per engine window. Kept in a heap
//! block, each costs a dependent miss behind its header on a mesh too
//! large for the host cache, and a binary-heap sift per push and pop.
//! Here the earliest `N` entries sit sorted in an array inside the
//! owner, so in the common case a push is one compare and a move, a pop
//! takes the front, and nothing outside the owner's own lines is read.
//! Entries that do not fit go to a heap, which stays unallocated until
//! the first overflow; a pop takes the smaller front of the two.
//! Delivery order is exactly [`ReadyQueue`](crate::ReadyQueue)'s:
//! ascending `(ready, insertion order)`.

use crate::{save_snapshot, Entry};
use mm_faults::{Ckpt, CkptError, Dec, Enc};
use std::collections::BinaryHeap;

/// A queue of items each due at an absolute cycle, popped in `(ready,
/// insertion order)`, whose earliest `N` entries are stored inline (see
/// the [module docs](self)).
///
/// ```
/// use mm_sched::SmallReadyQueue;
///
/// let mut q: SmallReadyQueue<&str, 2> = SmallReadyQueue::new();
/// q.push(5, "late");
/// q.push(3, "early");
/// q.push(3, "early-second"); // overflows the two inline entries
/// assert_eq!(q.next_ready(), Some(3));
/// assert_eq!(q.pop_due(2), None);
/// assert_eq!(q.pop_due(4), Some("early"));
/// assert_eq!(q.pop_due(4), Some("early-second"));
/// assert_eq!(q.pop_due(4), None);
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone)]
#[repr(C)]
pub struct SmallReadyQueue<T, const N: usize> {
    /// The earliest ready cycle queued (`u64::MAX` when empty): the
    /// "anything due?" check reads this field only.
    min_ready: u64,
    seq: u64,
    /// Entries in `near`.
    len: usize,
    /// Entries pushed while `near` was full and sorting after its last
    /// (its header beside the counts, so `is_empty` reads one line).
    far: BinaryHeap<Entry<T>>,
    /// `near[..len]`, ascending by `(ready, seq)`; the rest `None`.
    near: [Option<Entry<T>>; N],
}

impl<T, const N: usize> Default for SmallReadyQueue<T, N> {
    fn default() -> SmallReadyQueue<T, N> {
        SmallReadyQueue::new()
    }
}

impl<T, const N: usize> SmallReadyQueue<T, N> {
    const EMPTY: Option<Entry<T>> = None;

    /// An empty queue; allocates nothing.
    // analyze: cold (queue construction: the spill heap starts unallocated)
    #[must_use]
    pub fn new() -> SmallReadyQueue<T, N> {
        const { assert!(N > 0, "a small ready queue needs an inline entry") };
        SmallReadyQueue {
            min_ready: u64::MAX,
            seq: 0,
            len: 0,
            far: BinaryHeap::new(),
            near: [Self::EMPTY; N],
        }
    }

    /// Schedule `item` to become due at absolute cycle `ready`. Items
    /// pushed with the same `ready` pop in push order.
    pub fn push(&mut self, ready: u64, item: T) {
        self.seq += 1;
        self.min_ready = self.min_ready.min(ready);
        let e = Entry {
            ready,
            seq: self.seq,
            item,
        };
        if self.len == N {
            // Full: the newest key sorts last among equal `ready`s, so
            // it stays inline only by being due strictly earlier than
            // the last inline entry, which then moves out.
            let last = self.near[N - 1].as_ref().map_or(0, |l| l.ready);
            if ready >= last {
                self.far.push(e);
                return;
            }
            if let Some(evicted) = self.near[N - 1].take() {
                self.far.push(evicted);
            }
            self.len -= 1;
        }
        let mut i = self.len;
        while i > 0 && self.near[i - 1].as_ref().is_some_and(|p| p.ready > ready) {
            self.near[i] = self.near[i - 1].take();
            i -= 1;
        }
        self.near[i] = Some(e);
        self.len += 1;
    }

    /// Remove and return the next item whose ready cycle is `<= now`,
    /// or `None` when nothing (further) is due. Never allocates.
    pub fn pop_due(&mut self, now: u64) -> Option<T> {
        if self.min_ready > now {
            return None;
        }
        let near_first = match (&self.near[0], self.far.peek()) {
            (Some(a), Some(b)) => a.key() < b.key(),
            (Some(_), None) => true,
            (None, _) => false,
        };
        let e = if near_first {
            let e = self.near[0].take();
            self.near[..self.len].rotate_left(1);
            self.len -= 1;
            e
        } else {
            // (`?` covers the empty queue when `now == u64::MAX`.)
            Some(self.far.pop()?)
        };
        let near = self.near[0].as_ref().map_or(u64::MAX, |n| n.ready);
        let far = self.far.peek().map_or(u64::MAX, |f| f.ready);
        self.min_ready = near.min(far);
        e.map(|e| e.item)
    }

    /// The earliest ready cycle of any queued item (`O(1)`).
    #[must_use]
    pub fn next_ready(&self) -> Option<u64> {
        if self.min_ready == u64::MAX && self.is_empty() {
            None
        } else {
            Some(self.min_ready)
        }
    }

    /// Queued items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len + self.far.len()
    }

    /// Is the queue empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.far.is_empty()
    }

    /// Pop every due item (in `(ready, seq)` order) into `out`,
    /// returning how many were moved. `out` is appended to, not
    /// cleared.
    pub fn drain_due_into(&mut self, now: u64, out: &mut Vec<T>) -> usize {
        let before = out.len();
        while let Some(item) = self.pop_due(now) {
            out.push(item);
        }
        out.len() - before
    }

    /// Every queued `(ready, item)` pair in pop order — the checkpoint
    /// serialization view, as [`ReadyQueue::snapshot`](crate::ReadyQueue::snapshot).
    // analyze: cold (checkpoint/diagnostic view only)
    #[must_use]
    pub fn snapshot(&self) -> Vec<(u64, &T)> {
        let near = self.near[..self.len].iter().flatten();
        let mut entries: Vec<&Entry<T>> = near.chain(self.far.iter()).collect();
        entries.sort_by_key(|e| e.key());
        entries.into_iter().map(|e| (e.ready, &e.item)).collect()
    }

    /// Replace the contents with `items`, pushed in iteration order —
    /// the checkpoint restore view, as
    /// [`ReadyQueue::restore`](crate::ReadyQueue::restore).
    pub fn restore<I: IntoIterator<Item = (u64, T)>>(&mut self, items: I) {
        self.near = [Self::EMPTY; N];
        self.len = 0;
        self.far.clear();
        self.seq = 0;
        self.min_ready = u64::MAX;
        for (ready, item) in items {
            self.push(ready, item);
        }
    }
}

/// Checkpoint format: that of a [`ReadyQueue`](crate::ReadyQueue).
impl<T: Ckpt, const N: usize> Ckpt for SmallReadyQueue<T, N> {
    // analyze: cold (checkpoint codec)
    fn save(&self, e: &mut Enc) {
        save_snapshot(self.snapshot(), e);
    }

    // analyze: cold (checkpoint codec)
    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let mut q = SmallReadyQueue::new();
        q.restore(Vec::load(d)?);
        Ok(q)
    }
}
