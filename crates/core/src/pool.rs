//! The shard-owned node pool: the machine's struct-of-arrays mirror of
//! every node's hottest scheduling state.
//!
//! PR 4's analysis pinned the residual busy-cycle cost on *walking* the
//! node array: each `Node` is a multi-kilobyte heap object, so deciding
//! "is this node due?", folding the machine-wide min deadline, and
//! evaluating the halt predicate all paid one DRAM-latency-bound
//! pointer chase per node per cycle. The pool hoists exactly the fields
//! those walks read into contiguous arrays indexed by node id:
//!
//! * **wake-up slots + block minima** — a [`DeadlineLadder`]: the
//!   due test is `slots[i] <= now`, whole sleeping blocks are skipped
//!   via one `block_min` word, and the machine's `next_work` reduction
//!   reads `n / 64` words instead of `n` structs;
//! * **packed cluster-occupancy words** — [`Node::running_word`]
//!   mirrors, so "anything runnable anywhere?" is an OR-fold over a
//!   dense `u32` array;
//! * **user-thread tallies** — per-node running/finished counts plus
//!   machine-level totals maintained by per-step deltas, making the
//!   halt predicate O(1) instead of a scan.
//!
//! The `Node` structs stay the owners of all cold state; the pool rows
//! are mirrors, rewritten by [`NodeCtx::retire`] each time their node
//! steps (while it is cache-hot) and recomputed wholesale by
//! [`NodePool::refresh`] after external mutation. Workers receive
//! disjoint block-aligned [`PoolViewMut`] windows — split at
//! [`BLOCK`](mm_sched::BLOCK)-multiples so not even a `block_min` word is shared — and
//! log tally *deltas*, which the dispatcher sums; `i64` addition is
//! commutative and associative, so the totals are identical for every
//! worker count.

#[cfg(test)]
use mm_sched::INERT;
use mm_sched::{any_runnable, tally_total, DeadlineLadder, LadderViewMut};
use mm_sim::{Node, NodeCtx};

/// Dense per-node scheduling rows plus machine-level totals (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct NodePool {
    /// Wake-up slots and per-block minima.
    pub(crate) ladder: DeadlineLadder,
    /// Packed cluster-occupancy mirror, one word per node.
    pub(crate) running: Vec<u32>,
    /// Running user-thread tally mirror, one per node.
    pub(crate) user_running: Vec<u16>,
    /// Finished (halted/faulted) user-thread tally mirror.
    pub(crate) user_finished: Vec<u16>,
    /// `sum(user_running)` — maintained by per-step deltas.
    pub(crate) total_running: i64,
    /// `sum(user_finished)` — maintained by per-step deltas.
    pub(crate) total_finished: i64,
}

impl NodePool {
    /// A pool for `n` nodes, every node awake (the conservative boot
    /// state) with empty tallies.
    // analyze: cold (pool construction, once per machine)
    pub(crate) fn new(n: usize) -> NodePool {
        NodePool {
            ladder: DeadlineLadder::new(n),
            running: vec![0; n],
            user_running: vec![0; n],
            user_finished: vec![0; n],
            total_running: 0,
            total_finished: 0,
        }
    }

    /// Nodes tracked.
    pub(crate) fn len(&self) -> usize {
        self.running.len()
    }

    /// Mark node `i` awake (external input arrived). O(1).
    pub(crate) fn wake(&mut self, i: usize) {
        self.ladder.wake(i);
    }

    /// Mark every node awake (the dense debug loop's conservative
    /// post-state).
    pub(crate) fn wake_all(&mut self) {
        self.ladder.wake_all();
    }

    /// Node `i`'s current wake-up slot (checkpoint capture).
    pub(crate) fn deadline(&self, i: usize) -> u64 {
        self.ladder.slot(i)
    }

    /// Overwrite node `i`'s wake-up slot (checkpoint restore).
    pub(crate) fn set_deadline(&mut self, i: usize, deadline: u64) {
        self.ladder.set_slot(i, deadline);
    }

    /// The minimum wake-up slot across all nodes ([`mm_sched::AWAKE`]
    /// when anything is awake, [`INERT`] when everything is) — the
    /// machine's batched next-activity reduction, one word per block.
    pub(crate) fn min_deadline(&self) -> u64 {
        self.ladder.min_deadline()
    }

    /// Is any H-Thread resident and runnable anywhere in the machine?
    /// An OR-fold over the packed occupancy words.
    pub(crate) fn any_thread_running(&self) -> bool {
        any_runnable(&self.running)
    }

    /// The machine-level halt condition: no user H-Thread running
    /// anywhere and at least one finished. O(1) — two total reads.
    pub(crate) fn halt_reached(&self) -> bool {
        self.total_running == 0 && self.total_finished > 0
    }

    /// Fold one shard's tally deltas into the machine totals.
    pub(crate) fn apply_deltas(&mut self, d_running: i64, d_finished: i64) {
        self.total_running += d_running;
        self.total_finished += d_finished;
    }

    /// Recompute every mirror row and both totals wholesale from the
    /// nodes themselves — the re-sync after external node mutation
    /// (loaders, register pokes, the dense debug loop). Does not touch
    /// the ladder: wakefulness is the caller's policy.
    pub(crate) fn refresh(&mut self, nodes: &[Node]) {
        debug_assert_eq!(nodes.len(), self.len());
        for (i, n) in nodes.iter().enumerate() {
            self.running[i] = n.running_word();
            #[allow(clippy::cast_possible_truncation)]
            {
                self.user_running[i] = n.user_threads_running() as u16;
                self.user_finished[i] = n.user_threads_finished() as u16;
            }
        }
        #[allow(clippy::cast_possible_wrap)]
        {
            self.total_running = tally_total(&self.user_running) as i64;
            self.total_finished = tally_total(&self.user_finished) as i64;
        }
    }

    /// The whole pool as one mutable window (the serial engine's walk).
    pub(crate) fn view_mut(&mut self) -> PoolViewMut<'_> {
        PoolViewMut {
            ladder: self.ladder.view_mut(),
            running: &mut self.running,
            user_running: &mut self.user_running,
            user_finished: &mut self.user_finished,
        }
    }

    /// Split the pool at node `mid` into two disjoint windows for
    /// concurrent workers. `mid` must be [`BLOCK`](mm_sched::BLOCK)-aligned (or equal to
    /// `len`) so the two windows share no `block_min` word — the ladder
    /// split enforces this.
    ///
    /// # Panics
    ///
    /// Panics when `mid` is neither block-aligned nor `len`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn split_at_mut(&mut self, mid: usize) -> (PoolViewMut<'_>, PoolViewMut<'_>) {
        let (l0, l1) = self.ladder.split_at_mut(mid);
        let (r0, r1) = self.running.split_at_mut(mid);
        let (ur0, ur1) = self.user_running.split_at_mut(mid);
        let (uf0, uf1) = self.user_finished.split_at_mut(mid);
        (
            PoolViewMut {
                ladder: l0,
                running: r0,
                user_running: ur0,
                user_finished: uf0,
            },
            PoolViewMut {
                ladder: l1,
                running: r1,
                user_running: ur1,
                user_finished: uf1,
            },
        )
    }
}

/// A mutable window over a block-aligned range of the pool — the
/// per-worker borrow the shard walk runs on. All indices are local to
/// the window.
#[derive(Debug)]
pub(crate) struct PoolViewMut<'a> {
    /// Wake-up slots + block minima for this range.
    pub(crate) ladder: LadderViewMut<'a>,
    /// Packed occupancy mirrors.
    pub(crate) running: &'a mut [u32],
    /// Running user-thread tallies.
    pub(crate) user_running: &'a mut [u16],
    /// Finished user-thread tallies.
    pub(crate) user_finished: &'a mut [u16],
}

impl<'a> PoolViewMut<'a> {
    /// Borrow local node `k`'s row together with its node as one
    /// [`NodeCtx`] — the only way the step walk touches a row, so the
    /// borrows are provably confined to one node at a time.
    pub(crate) fn ctx<'b>(&'b mut self, k: usize, node: &'b mut Node) -> NodeCtx<'b> {
        NodeCtx {
            node,
            slot: &mut self.ladder.slots[k],
            running: &mut self.running[k],
            user_running: &mut self.user_running[k],
            user_finished: &mut self.user_finished[k],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_net::message::NodeCoord;
    use mm_sched::AWAKE;
    use mm_sim::NodeConfig;
    use std::sync::Arc;

    fn node() -> Node {
        Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0))
    }

    #[test]
    fn refresh_rebuilds_mirrors_and_totals() {
        let mut nodes = vec![node(), node(), node()];
        let prog = Arc::new(mm_isa::assemble("halt\n").unwrap());
        nodes[1].load_program(0, 0, Arc::clone(&prog), 0);
        nodes[1].load_program(0, 1, prog, 0);
        let mut pool = NodePool::new(3);
        pool.refresh(&nodes);
        assert_eq!(pool.user_running, vec![0, 2, 0]);
        assert_eq!(pool.total_running, 2);
        assert_eq!(pool.total_finished, 0);
        assert!(pool.any_thread_running());
        assert!(!pool.halt_reached());
        assert_eq!(pool.running[1], nodes[1].running_word());
        assert_eq!(pool.running[0], 0);
    }

    #[test]
    fn split_views_are_disjoint_and_write_through() {
        let mut pool = NodePool::new(130);
        pool.ladder.view_mut().slots.fill(INERT);
        for b in 0..pool.ladder.blocks() {
            pool.ladder.rebuild_block(b);
        }
        let (mut a, mut b) = pool.split_at_mut(64);
        assert_eq!(a.running.len(), 64);
        assert_eq!(b.running.len(), 66);
        assert_eq!(a.ladder.block_min.len(), 1);
        assert_eq!(b.ladder.block_min.len(), 2);
        // Disjoint writes through both windows land at distinct rows.
        a.ladder.slots[0] = 7;
        a.running[0] = 0xdead;
        a.user_running[0] = 3;
        b.ladder.slots[0] = 9; // global node 64
        b.running[0] = 0xbeef;
        b.user_finished[1] = 5; // global node 65
        a.ladder.rebuild_block(0);
        b.ladder.rebuild_block(0);
        assert_eq!(pool.ladder.slot(0), 7);
        assert_eq!(pool.ladder.slot(64), 9);
        assert_eq!(pool.ladder.block_min(0), 7);
        assert_eq!(pool.ladder.block_min(1), 9);
        assert_eq!(pool.running[0], 0xdead);
        assert_eq!(pool.running[64], 0xbeef);
        assert_eq!(pool.user_running[0], 3);
        assert_eq!(pool.user_finished[65], 5);
    }

    #[test]
    #[should_panic(expected = "shares a block-minimum word")]
    fn unaligned_pool_split_panics() {
        let mut pool = NodePool::new(130);
        let _ = pool.split_at_mut(65);
    }

    #[test]
    fn ctx_rows_update_totals_via_deltas() {
        let mut nodes = vec![node(), node()];
        let prog = Arc::new(mm_isa::assemble("halt\n").unwrap());
        nodes[1].load_program(0, 0, prog, 0);
        let mut pool = NodePool::new(2);
        pool.refresh(&nodes);
        assert_eq!(pool.total_running, 1);
        // Step node 1 to completion through a ctx, applying deltas.
        let mut scratch = mm_sim::StepScratch::new();
        let mut now = 0;
        while pool.total_running > 0 && now < 32 {
            let mut view = pool.view_mut();
            let mut ctx = view.ctx(1, &mut nodes[1]);
            let progressed = ctx.step(now, &mut scratch);
            let deadline = ctx.node.next_activity(now);
            let (dr, df) = ctx.retire(progressed, deadline);
            pool.apply_deltas(dr, df);
            now += 1;
        }
        assert_eq!(pool.total_running, 0);
        assert_eq!(pool.total_finished, 1);
        assert!(pool.halt_reached());
        assert_eq!(pool.ladder.slot(0), AWAKE, "untouched row unchanged");
    }
}
