//! # mm-sched — ready-ordered queues for the cycle kernel
//!
//! Every component on the simulator's cycle path schedules work for a
//! future cycle: a unit writeback lands after its latency, a C-Switch
//! transfer after the switch hop, a memory response at its pipeline
//! depth, a packet at its routed delivery cycle. The original kernel
//! kept those items in plain `Vec`s and either re-sorted per cycle
//! (the C-Switch) or linearly scanned with `swap_remove` (writebacks,
//! memory responses, in-flight packets) — `O(n)` per cycle, `O(n log n)`
//! where sorted, and `O(n)` again for every `next_activity` deadline
//! query.
//!
//! [`ReadyQueue`] replaces all of those call sites with one structure: a
//! binary min-heap keyed on `(ready, seq)`, where `seq` is an internal
//! monotonic insertion counter. The invariants the cycle kernel relies
//! on:
//!
//! * **Delivery order is `(ready, seq)`** — ascending ready cycle,
//!   insertion order within a cycle. This is exactly the order the old
//!   sort-then-scan C-Switch produced (`sort_by_key(|t| (t.ready,
//!   t.seq))` followed by in-order removal of due entries), so the
//!   replacement is delivery-order-identical, not merely equivalent.
//! * **`pop_due` never allocates**, and `push` only allocates when the
//!   heap grows past its high-water mark — steady-state cycles run
//!   allocation-free.
//! * **`next_ready` is `O(1)`** (a heap peek), so quiescence deadline
//!   queries no longer walk the pending set.
//!
//! The crate sits below `mm-mem`, `mm-net` and `mm-sim` in the
//! dependency DAG (it depends on nothing) so all three can share it.

#![warn(missing_docs)]

pub mod ladder;
pub mod small;

pub use ladder::{DeadlineLadder, LadderViewMut, AWAKE, BLOCK, INERT};
pub use small::SmallReadyQueue;

use mm_faults::{Ckpt, CkptError, Dec, Enc};
use std::collections::BinaryHeap;

/// One scheduled item. Ordering is **reversed** on `(ready, seq)` so
/// that `BinaryHeap` (a max-heap) pops the earliest-ready,
/// first-inserted entry first. The payload never participates in the
/// ordering.
#[derive(Debug, Clone)]
struct Entry<T> {
    ready: u64,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    /// The delivery-order key.
    fn key(&self) -> (u64, u64) {
        (self.ready, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Entry<T>) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Entry<T>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Entry<T>) -> std::cmp::Ordering {
        // Reversed: the max-heap's "largest" is our smallest key.
        other.key().cmp(&self.key())
    }
}

/// A queue of items each scheduled to become *due* at an absolute cycle,
/// popped in `(ready, insertion order)` — the cycle kernel's shared
/// ready-ordered structure (see the [crate docs](self)).
///
/// ```
/// use mm_sched::ReadyQueue;
///
/// let mut q = ReadyQueue::new();
/// q.push(5, "late");
/// q.push(3, "early");
/// q.push(3, "early-second"); // same cycle: insertion order breaks the tie
/// assert_eq!(q.next_ready(), Some(3));
/// assert_eq!(q.pop_due(2), None); // nothing due yet
/// assert_eq!(q.pop_due(4), Some("early"));
/// assert_eq!(q.pop_due(4), Some("early-second"));
/// assert_eq!(q.pop_due(4), None); // "late" is not due until cycle 5
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReadyQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    /// Mirror of the heap top's ready cycle (`u64::MAX` when empty),
    /// kept in the queue header so the per-cycle "anything due?" check
    /// reads one inline field instead of dereferencing heap storage —
    /// the check runs for every component of every node every cycle,
    /// and the answer is usually "no".
    min_ready: u64,
}

impl<T> Default for ReadyQueue<T> {
    fn default() -> ReadyQueue<T> {
        ReadyQueue::new()
    }
}

impl<T> ReadyQueue<T> {
    /// An empty queue.
    // analyze: cold (queue construction; steady state reuses the storage)
    #[must_use]
    pub fn new() -> ReadyQueue<T> {
        ReadyQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            min_ready: u64::MAX,
        }
    }

    /// An empty queue with room for `cap` items before reallocating.
    // analyze: cold (queue construction; steady state reuses the storage)
    #[must_use]
    pub fn with_capacity(cap: usize) -> ReadyQueue<T> {
        ReadyQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
            min_ready: u64::MAX,
        }
    }

    /// Schedule `item` to become due at absolute cycle `ready`.
    ///
    /// Items pushed with the same `ready` pop in push order.
    pub fn push(&mut self, ready: u64, item: T) {
        self.seq += 1;
        self.min_ready = self.min_ready.min(ready);
        self.heap.push(Entry {
            ready,
            seq: self.seq,
            item,
        });
    }

    /// Remove and return the next item whose ready cycle is `<= now`,
    /// or `None` when nothing (further) is due. Never allocates, and
    /// rejects the common nothing-due case from the header mirror
    /// without touching heap storage.
    pub fn pop_due(&mut self, now: u64) -> Option<T> {
        if self.min_ready > now {
            return None;
        }
        // (`?` covers the empty-queue case when `now == u64::MAX`.)
        let e = self.heap.pop()?;
        self.min_ready = self.heap.peek().map_or(u64::MAX, |n| n.ready);
        Some(e.item)
    }

    /// The earliest ready cycle of any queued item (`O(1)`, header
    /// read only).
    #[must_use]
    pub fn next_ready(&self) -> Option<u64> {
        if self.min_ready == u64::MAX && self.heap.is_empty() {
            None
        } else {
            Some(self.min_ready)
        }
    }

    /// Queued items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pop every due item (in `(ready, seq)` order) into `out`,
    /// returning how many were moved. `out` is appended to, not
    /// cleared — callers own the scratch-buffer discipline.
    pub fn drain_due_into(&mut self, now: u64, out: &mut Vec<T>) -> usize {
        let before = out.len();
        while let Some(item) = self.pop_due(now) {
            out.push(item);
        }
        out.len() - before
    }

    /// Every queued `(ready, item)` pair in pop order (`(ready, seq)`
    /// ascending) — the checkpoint serialization view. Cold path: sorts
    /// a temporary index, never mutates the queue.
    // analyze: cold (checkpoint/diagnostic view only)
    #[must_use]
    pub fn snapshot(&self) -> Vec<(u64, &T)> {
        let mut entries: Vec<&Entry<T>> = self.heap.iter().collect();
        entries.sort_by_key(|e| e.key());
        entries.into_iter().map(|e| (e.ready, &e.item)).collect()
    }

    /// Replace the queue's contents with `items`, pushed in iteration
    /// order — the checkpoint restore view. Feeding back exactly what
    /// [`ReadyQueue::snapshot`] produced yields a queue whose pop order
    /// is identical to the original's, including ties at equal ready
    /// cycles against any *future* pushes (restored entries re-number
    /// from fresh sequence values, but their relative order — and their
    /// precedence over later pushes — is preserved).
    pub fn restore<I: IntoIterator<Item = (u64, T)>>(&mut self, items: I) {
        self.heap.clear();
        self.seq = 0;
        self.min_ready = u64::MAX;
        for (ready, item) in items {
            self.push(ready, item);
        }
    }
}

/// Checkpoint format: the `(ready, item)` pairs of
/// [`ReadyQueue::snapshot`] as a list; loading hands them to
/// [`ReadyQueue::restore`], so the pop order survives.
impl<T: Ckpt> Ckpt for ReadyQueue<T> {
    // analyze: cold (checkpoint codec)
    fn save(&self, e: &mut Enc) {
        save_snapshot(self.snapshot(), e);
    }

    // analyze: cold (checkpoint codec)
    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let mut q = ReadyQueue::new();
        q.restore(Vec::load(d)?);
        Ok(q)
    }
}

/// Write a queue snapshot as a list of `(ready, item)` pairs.
// analyze: cold (checkpoint codec)
fn save_snapshot<T: Ckpt>(snap: Vec<(u64, &T)>, e: &mut Enc) {
    e.usize(snap.len());
    for (ready, item) in snap {
        e.u64(ready);
        item.save(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_ready_then_insertion_order() {
        let mut q = ReadyQueue::new();
        q.push(10, 'c');
        q.push(5, 'a');
        q.push(10, 'd');
        q.push(5, 'b');
        let mut got = Vec::new();
        while let Some(x) = q.pop_due(u64::MAX) {
            got.push(x);
        }
        assert_eq!(got, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn due_filtering_respects_now() {
        let mut q = ReadyQueue::new();
        q.push(3, 1);
        q.push(7, 2);
        assert_eq!(q.pop_due(2), None);
        assert_eq!(q.pop_due(3), Some(1));
        assert_eq!(q.pop_due(3), None);
        assert_eq!(q.next_ready(), Some(7));
        assert_eq!(q.pop_due(100), Some(2));
        assert!(q.is_empty());
        assert_eq!(q.next_ready(), None);
    }

    #[test]
    fn drain_due_appends_and_counts() {
        let mut q = ReadyQueue::new();
        for k in 0..5u64 {
            q.push(k, k);
        }
        let mut out = vec![99u64];
        assert_eq!(q.drain_due_into(2, &mut out), 3);
        assert_eq!(out, vec![99, 0, 1, 2]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn snapshot_restore_preserves_pop_order() {
        let mut q = ReadyQueue::new();
        q.push(9, 'x');
        q.push(4, 'a');
        q.push(4, 'b');
        q.push(6, 'm');
        let snap: Vec<(u64, char)> = q.snapshot().into_iter().map(|(r, &c)| (r, c)).collect();
        assert_eq!(snap, vec![(4, 'a'), (4, 'b'), (6, 'm'), (9, 'x')]);
        let mut r = ReadyQueue::new();
        r.push(0, 'z'); // restore clears pre-existing contents
        r.restore(snap);
        // Ties against future pushes break the same way as the original.
        q.push(4, 'c');
        r.push(4, 'c');
        let drain = |q: &mut ReadyQueue<char>| {
            let mut got = Vec::new();
            while let Some(x) = q.pop_due(u64::MAX) {
                got.push(x);
            }
            got
        };
        assert_eq!(drain(&mut q), drain(&mut r));
    }

    #[test]
    fn interleaved_pushes_keep_global_insertion_ties() {
        // Push at the same ready cycle across separate batches: the
        // internal seq keeps first-pushed-first-popped.
        let mut q = ReadyQueue::new();
        q.push(4, "first");
        let _ = q.pop_due(0); // not due; no effect on seq
        q.push(4, "second");
        assert_eq!(q.pop_due(4), Some("first"));
        assert_eq!(q.pop_due(4), Some("second"));
    }
}
