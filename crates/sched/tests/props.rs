//! Property tests pinning [`ReadyQueue`] to the exact delivery
//! semantics of the C-Switch structure it replaced.
//!
//! The pre-optimization kernel kept C-Switch transfers in a `Vec`,
//! re-sorted it by `(ready, seq)` every cycle, and removed due entries
//! in order up to the switch width (`crates/sim/src/node.rs`, PR 3).
//! The reference model below is that algorithm verbatim; the property
//! drives both it and a [`ReadyQueue`] through the same randomized
//! push/deliver schedule — including `(ready, seq)` ties, width limits
//! and bursts scheduled out of order — and demands identical delivery
//! sequences every cycle.

use mm_sched::ReadyQueue;
use proptest::prelude::*;

/// The old C-Switch entry: an explicit per-node sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OldTransfer {
    ready: u64,
    seq: u64,
    id: u64,
}

/// The old algorithm: sort the whole set by `(ready, seq)`, then remove
/// due entries in order, at most `width` per cycle.
#[derive(Default)]
struct SortThenScan {
    csw: Vec<OldTransfer>,
    seq: u64,
}

impl SortThenScan {
    fn push(&mut self, ready: u64, id: u64) {
        self.seq += 1;
        self.csw.push(OldTransfer {
            ready,
            seq: self.seq,
            id,
        });
    }

    fn deliver(&mut self, now: u64, width: usize) -> Vec<u64> {
        self.csw.sort_by_key(|t| (t.ready, t.seq));
        let mut out = Vec::new();
        let mut j = 0;
        while j < self.csw.len() && out.len() < width {
            if self.csw[j].ready <= now {
                out.push(self.csw.remove(j).id);
            } else {
                j += 1;
            }
        }
        out
    }
}

/// Drive both structures through one schedule; a gene `(delay, burst)`
/// pushes `burst` items due `delay` cycles out, then delivers.
fn run_schedule(genes: &[(u64, u64)], width: usize) -> Result<(), TestCaseError> {
    let mut old = SortThenScan::default();
    let mut new: ReadyQueue<u64> = ReadyQueue::new();
    let mut next_id = 0u64;
    let mut due_new = Vec::new();
    for (now, &(delay, burst)) in genes.iter().enumerate() {
        let now = now as u64;
        for _ in 0..burst {
            next_id += 1;
            old.push(now + delay, next_id);
            new.push(now + delay, next_id);
        }
        let due_old = old.deliver(now, width);
        due_new.clear();
        for _ in 0..width {
            match new.pop_due(now) {
                Some(id) => due_new.push(id),
                None => break,
            }
        }
        prop_assert_eq!(
            &due_old,
            &due_new,
            "delivery order diverged at cycle {} (width {})",
            now,
            width
        );
    }
    // Drain the stragglers with no width limit: full order must match.
    let rest_old = old.deliver(u64::MAX, usize::MAX);
    due_new.clear();
    new.drain_due_into(u64::MAX, &mut due_new);
    prop_assert_eq!(&rest_old, &due_new, "drain order diverged");
    prop_assert!(new.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized schedules: same deliveries, cycle by cycle, as the
    /// old sort-then-scan loop — including ties (delay 0..4 over a
    /// short horizon forces many same-`ready` collisions).
    #[test]
    fn matches_sort_then_scan(
        genes in prop::collection::vec((0u64..4, 0u64..5), 1..64),
        width in 1usize..6,
    ) {
        run_schedule(&genes, width)?;
    }

    /// Degenerate width 1 (strictest ordering observability) with
    /// larger delays, so items cross many delivery cycles.
    #[test]
    fn matches_sort_then_scan_width_one(
        genes in prop::collection::vec((0u64..9, 0u64..3), 1..48),
    ) {
        run_schedule(&genes, 1)?;
    }
}

/// The exact tie-break the C-Switch relies on: a GCC broadcast and a
/// remote write scheduled the same cycle deliver in issue order even
/// when the switch can only move one word per cycle.
#[test]
fn same_cycle_ties_deliver_in_push_order() {
    let mut old = SortThenScan::default();
    let mut new = ReadyQueue::new();
    for id in 1..=6u64 {
        old.push(10, id);
        new.push(10, id);
    }
    for now in 10..16 {
        let o = old.deliver(now, 1);
        let n = new.pop_due(now).map(|id| vec![id]).unwrap_or_default();
        assert_eq!(o, n, "cycle {now}");
        assert_eq!(o.len(), 1);
    }
}

// ----------------------------------------------------------------------
// The inline-front queue vs the heap queue it stands in for
// ----------------------------------------------------------------------

use mm_sched::SmallReadyQueue;

/// Drive a [`SmallReadyQueue`] and a heap [`ReadyQueue`] through the same
/// pushes, pops, drains and snapshot/restore round trips: every pop,
/// length, next-ready cycle and snapshot must agree.
fn small_matches_heap<const N: usize>(ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
    let mut heap: ReadyQueue<u64> = ReadyQueue::new();
    let mut small: SmallReadyQueue<u64, N> = SmallReadyQueue::new();
    let mut now = 0u64;
    let mut id = 0u64;
    for &(kind, v) in ops {
        match kind {
            // Mostly pushes, a few cycles out: ties and overflow.
            0..=3 => {
                id += 1;
                heap.push(now + v, id);
                small.push(now + v, id);
            }
            4 | 5 => {
                prop_assert_eq!(small.pop_due(now), heap.pop_due(now), "pop at {}", now);
            }
            6 => {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                prop_assert_eq!(
                    small.drain_due_into(now, &mut a),
                    heap.drain_due_into(now, &mut b)
                );
                prop_assert_eq!(a, b, "drain at {}", now);
            }
            7 => {
                let snap: Vec<(u64, u64)> =
                    heap.snapshot().into_iter().map(|(r, &x)| (r, x)).collect();
                let got: Vec<(u64, u64)> =
                    small.snapshot().into_iter().map(|(r, &x)| (r, x)).collect();
                prop_assert_eq!(&got, &snap);
                small.restore(got);
                heap.restore(snap);
            }
            _ => now += v,
        }
        prop_assert_eq!(small.len(), heap.len());
        prop_assert_eq!(small.is_empty(), heap.is_empty());
        prop_assert_eq!(small.next_ready(), heap.next_ready());
    }
    let (mut a, mut b) = (Vec::new(), Vec::new());
    small.drain_due_into(u64::MAX, &mut a);
    heap.drain_due_into(u64::MAX, &mut b);
    prop_assert_eq!(a, b, "final drain");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One, two and four inline entries: the split between the inline
    /// front and the heap never shows in what pops, or when.
    #[test]
    fn small_queue_matches_heap_queue(ops in prop::collection::vec((0u8..9, 0u64..6), 1..160)) {
        small_matches_heap::<1>(&ops)?;
        small_matches_heap::<2>(&ops)?;
        small_matches_heap::<4>(&ops)?;
    }
}
