//! The deadline ladder: dense per-node wake-up state for the cycle
//! engine, the only per-node scheduling state kept outside the nodes.
//!
//! The quiescence engine keeps, for every node, *when it next needs to
//! be stepped*. The original representation was an array-of-structs
//! (`awake: bool` + `deadline: Option<u64>` per node), which forced the
//! per-cycle "who is due?" walk and the machine-level min-deadline
//! reduction to touch one 24-byte struct per node. The ladder packs the
//! same information into one `u64` per node:
//!
//! * [`AWAKE`] (`0`) — step the node at the next processed cycle;
//! * [`INERT`] (`u64::MAX`) — provably idle until an external wake-up;
//! * anything else — an absolute cycle: the node sleeps until then.
//!
//! Under this encoding *"node `i` is due at cycle `now`"* is the single
//! comparison `slots[i] <= now` (awake nodes pass because `0 <= now`;
//! inert nodes never pass), so the due-walk is a linear scan of a dense
//! `u64` array, and the min-deadline reduction is a `min`-fold the
//! compiler can vectorize.
//!
//! On top of the flat array the ladder maintains one *block minimum*
//! per [`BLOCK`]-node block. Skips and reductions then run at block
//! granularity: a whole block of sleeping nodes costs one `u64` read
//! per cycle, and the machine-level `next_work` scan reads `n / 64`
//! words instead of `n` structs. Block minima are maintained
//! monotonically cheap: *waking* a node folds into the block min in
//! `O(1)`; *raising* a slot (a node going back to sleep after a step)
//! marks the block for a 64-wide recompute, which the step walk batches
//! once per visited block via [`DeadlineLadder::rebuild_block`].

/// Slot value for a node that must be stepped at the next processed
/// cycle.
pub const AWAKE: u64 = 0;

/// Slot value for a node that is provably inert until an external
/// wake-up (no self-scheduled deadline).
pub const INERT: u64 = u64::MAX;

/// Nodes per block-minimum entry. 64 keeps a block's slot array at
/// exactly 8 cache lines and lets per-block due-masks fit one `u64`.
pub const BLOCK: usize = 64;

/// Dense per-node wake-up slots plus per-block minima (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct DeadlineLadder {
    slots: Vec<u64>,
    block_min: Vec<u64>,
}

impl DeadlineLadder {
    /// A ladder for `n` nodes, every node [`AWAKE`] (the conservative
    /// boot state: each node proves itself quiescent on its first
    /// no-progress step).
    // analyze: cold (ladder construction, once per machine)
    #[must_use]
    pub fn new(n: usize) -> DeadlineLadder {
        DeadlineLadder {
            slots: vec![AWAKE; n],
            block_min: vec![AWAKE; n.div_ceil(BLOCK)],
        }
    }

    /// Nodes tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is the ladder empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Blocks tracked (`ceil(len / BLOCK)`).
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.block_min.len()
    }

    /// Node `i`'s raw slot value.
    #[must_use]
    pub fn slot(&self, i: usize) -> u64 {
        self.slots[i]
    }

    /// Block `b`'s minimum slot value.
    #[must_use]
    pub fn block_min(&self, b: usize) -> u64 {
        self.block_min[b]
    }

    /// Mark node `i` awake (external input arrived). `O(1)`: waking only
    /// lowers the slot, so the block minimum folds monotonically.
    pub fn wake(&mut self, i: usize) {
        self.slots[i] = AWAKE;
        self.block_min[i / BLOCK] = AWAKE;
    }

    /// Mark every node awake (the dense debug loop's conservative
    /// post-state).
    pub fn wake_all(&mut self) {
        self.slots.fill(AWAKE);
        self.block_min.fill(AWAKE);
    }

    /// Overwrite node `i`'s slot with `deadline`, raising or lowering
    /// freely — checkpoint restore reconstructing an exact sleep
    /// schedule. Rebuilds the owning block's minimum, so it is `O(BLOCK)`
    /// rather than `O(1)`; not for hot paths.
    pub fn set_slot(&mut self, i: usize, deadline: u64) {
        self.slots[i] = deadline;
        self.rebuild_block(i / BLOCK);
    }

    /// Node `i`'s slot, for the step walk to rewrite in place after each
    /// step. The block minimum is left as it was: the walk rebuilds it
    /// with [`DeadlineLadder::rebuild_block`] once it leaves the block.
    pub fn slot_mut(&mut self, i: usize) -> &mut u64 {
        &mut self.slots[i]
    }

    /// Recompute block `b`'s minimum from its slots. Called once per
    /// block whose slots were (possibly) raised during a step walk.
    pub fn rebuild_block(&mut self, b: usize) {
        let lo = b * BLOCK;
        let hi = (lo + BLOCK).min(self.slots.len());
        self.block_min[b] = self.slots[lo..hi].iter().copied().min().unwrap_or(INERT);
    }

    /// The minimum slot value across all nodes — [`AWAKE`] when any
    /// node is awake, [`INERT`] when every node is inert. Reads one
    /// word per block.
    #[must_use]
    pub fn min_deadline(&self) -> u64 {
        self.block_min.iter().copied().min().unwrap_or(INERT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar model: a node is due when `slot <= now`.
    fn scalar_min(slots: &[u64]) -> u64 {
        slots.iter().copied().min().unwrap_or(INERT)
    }

    #[test]
    fn new_ladder_is_all_awake() {
        let l = DeadlineLadder::new(100);
        assert_eq!(l.len(), 100);
        assert_eq!(l.blocks(), 2);
        assert_eq!(l.min_deadline(), AWAKE);
        assert!((0..100).all(|i| l.slot(i) == AWAKE));
    }

    #[test]
    fn wake_and_set_slot_keep_block_minima_exact() {
        let mut l = DeadlineLadder::new(130);
        // Raise everything in place, rebuilding each block.
        for i in 0..l.len() {
            *l.slot_mut(i) = INERT;
        }
        for b in 0..l.blocks() {
            l.rebuild_block(b);
        }
        assert_eq!(l.min_deadline(), INERT);
        l.set_slot(129, 500);
        assert_eq!(l.min_deadline(), 500);
        assert_eq!(l.block_min(2), 500);
        assert_eq!(l.block_min(0), INERT);
        // set_slot raises too, and rebuilds the block.
        l.set_slot(129, 900);
        assert_eq!(l.slot(129), 900);
        assert_eq!(l.block_min(2), 900);
        l.wake(3);
        assert_eq!(l.block_min(0), AWAKE);
        assert_eq!(l.min_deadline(), AWAKE);
    }

    #[test]
    fn block_min_matches_scalar_after_rebuilds() {
        let mut l = DeadlineLadder::new(200);
        let values: Vec<u64> = (0..200u64)
            .map(|i| match i % 5 {
                0 => AWAKE,
                1 => INERT,
                _ => i * 37 % 1000 + 1,
            })
            .collect();
        for (i, &v) in values.iter().enumerate() {
            *l.slot_mut(i) = v;
        }
        for b in 0..l.blocks() {
            l.rebuild_block(b);
        }
        assert_eq!(l.min_deadline(), scalar_min(&values));
        for b in 0..l.blocks() {
            let lo = b * BLOCK;
            let hi = (lo + BLOCK).min(200);
            assert_eq!(l.block_min(b), scalar_min(&values[lo..hi]), "block {b}");
        }
    }
}
