//! Property tests pinning the deadline ladder to its scalar per-node
//! equivalent: whatever the mix of awake / inert / scheduled nodes, the
//! block-min ladder, the due test and the min-deadline reduction must
//! agree exactly with the obvious one-node-at-a-time computation.

use mm_sched::{DeadlineLadder, AWAKE, BLOCK, INERT};
use proptest::prelude::*;

/// A node's slot value drawn from the three regimes the engine uses.
fn slot_value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(AWAKE), Just(INERT), (1u64..10_000).boxed()]
}

proptest! {
    /// Ladder minima (per block and global) equal the scalar min over
    /// slots, after arbitrary slot writes + block rebuilds.
    #[test]
    fn ladder_minima_match_scalar(values in prop::collection::vec(slot_value(), 1..300)) {
        let mut l = DeadlineLadder::new(values.len());
        for (i, &v) in values.iter().enumerate() {
            *l.slot_mut(i) = v;
        }
        for b in 0..l.blocks() {
            l.rebuild_block(b);
        }
        for b in 0..l.blocks() {
            let lo = b * BLOCK;
            let hi = (lo + BLOCK).min(values.len());
            let scalar = values[lo..hi].iter().copied().min().unwrap();
            prop_assert_eq!(l.block_min(b), scalar, "block {}", b);
        }
        prop_assert_eq!(l.min_deadline(), values.iter().copied().min().unwrap());
    }

    /// The single-comparison due test (`slot <= now`) equals the
    /// scalar awake-or-deadline-due predicate, and a block whose
    /// minimum is not due contains no due node (the skip the walk
    /// relies on).
    #[test]
    fn due_test_and_block_skip_are_sound(
        values in prop::collection::vec(slot_value(), 1..300),
        now in 0u64..12_000,
    ) {
        let mut l = DeadlineLadder::new(values.len());
        for (i, &v) in values.iter().enumerate() {
            *l.slot_mut(i) = v;
        }
        for b in 0..l.blocks() {
            l.rebuild_block(b);
        }
        for (i, &v) in values.iter().enumerate() {
            let scalar_due = v == AWAKE || (v != INERT && v <= now);
            prop_assert_eq!(l.slot(i) <= now, scalar_due, "node {}", i);
        }
        for b in 0..l.blocks() {
            if l.block_min(b) > now {
                let lo = b * BLOCK;
                let hi = (lo + BLOCK).min(values.len());
                prop_assert!(
                    values[lo..hi].iter().all(|&v| v > now),
                    "skipped block {} contained a due node", b
                );
            }
        }
    }

    /// Waking (the O(1) monotonic path) and lowering deadlines through
    /// `set_slot` keep the ladder equal to a scalar model stepped by the
    /// same ops.
    #[test]
    fn monotonic_updates_track_scalar_model(
        n in 1usize..200,
        ops in prop::collection::vec((0usize..10_000, slot_value()), 0..100),
    ) {
        let mut l = DeadlineLadder::new(n);
        let mut model = vec![AWAKE; n];
        // Start from an arbitrary raised state.
        for (i, m) in model.iter_mut().enumerate() {
            *l.slot_mut(i) = INERT;
            *m = INERT;
        }
        for b in 0..l.blocks() {
            l.rebuild_block(b);
        }
        for (idx, v) in ops {
            let i = idx % n;
            if v == AWAKE {
                l.wake(i);
                model[i] = AWAKE;
            } else {
                model[i] = model[i].min(v);
                l.set_slot(i, model[i]);
            }
            prop_assert_eq!(l.slot(i), model[i]);
            prop_assert_eq!(l.min_deadline(), model.iter().copied().min().unwrap());
        }
    }
}
