//! [`NodeCtx`]: the borrow that ties a cold [`Node`] to its row in the
//! machine's struct-of-arrays node pool.
//!
//! The cycle engine keeps the *hottest* per-node scheduling state —
//! wake-up slot, packed cluster-occupancy word, user-thread tallies —
//! in dense arrays indexed by node id (the `NodePool` in `mm-core`),
//! while the [`Node`] itself stays the owner of everything cold. A step
//! must mutate both sides coherently: the node advances, and its pool
//! row must mirror the node's post-step state exactly (the machine's
//! halt predicate, next-activity reduction and due-node walk read
//! *only* the rows).
//!
//! `NodeCtx` packages one node plus `&mut` borrows of exactly its row.
//! The borrows are plain disjoint Rust borrows: a worker holding the
//! `NodeCtx` for node `i` can alias neither another node nor another
//! row, so shards built from disjoint pool views are data-race-free by
//! construction (see `mm-core`'s `shard` module for the split
//! discipline).

use crate::node::{Node, StepScratch};
use mm_sched::{AWAKE, INERT};

/// One node plus mutable borrows of its struct-of-arrays pool row.
///
/// Constructed per stepped node by the shard walk; dropped before the
/// next node's ctx is built, so row borrows never overlap.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    /// The cold-state owner: threads, register files, memory system,
    /// network interface.
    pub node: &'a mut Node,
    /// The node's wake-up slot in the deadline ladder ([`AWAKE`],
    /// [`INERT`], or an absolute due cycle).
    pub slot: &'a mut u64,
    /// Mirror of the node's packed cluster-occupancy word
    /// ([`Node::running_word`]).
    pub running: &'a mut u32,
    /// Mirror of the node's running user-thread tally.
    pub user_running: &'a mut u16,
    /// Mirror of the node's finished (halted/faulted) user-thread
    /// tally.
    pub user_finished: &'a mut u16,
}

impl NodeCtx<'_> {
    /// Step the node through cycle `now` (compute, memory, network
    /// drains). Forwards to [`Node::step_with`]; the row is written by
    /// [`NodeCtx::retire`] once the caller has also run the node's
    /// coherence handler and folded the deadlines.
    pub fn step(&mut self, now: u64, scratch: &mut StepScratch) -> bool {
        self.node.step_with(now, scratch)
    }

    /// Write the node's post-step state back into its pool row and
    /// return the `(running, finished)` user-thread tally deltas for
    /// the machine's O(1) halt totals.
    ///
    /// `progressed` keeps the node [`AWAKE`]; otherwise `deadline`
    /// (the fold of the node's and its coherence handler's
    /// `next_activity`) becomes the slot, with `None` encoding
    /// [`INERT`].
    pub fn retire(&mut self, progressed: bool, deadline: Option<u64>) -> (i64, i64) {
        *self.slot = if progressed {
            AWAKE
        } else {
            deadline.map_or(INERT, |d| d)
        };
        *self.running = self.node.running_word();
        #[allow(clippy::cast_possible_truncation)]
        let (nr, nf) = (
            self.node.user_threads_running() as u16,
            self.node.user_threads_finished() as u16,
        );
        let dr = i64::from(nr) - i64::from(*self.user_running);
        let df = i64::from(nf) - i64::from(*self.user_finished);
        *self.user_running = nr;
        *self.user_finished = nf;
        (dr, df)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeConfig;
    use mm_net::message::NodeCoord;
    use std::sync::Arc;

    #[test]
    fn retire_mirrors_node_state_and_reports_deltas() {
        let mut node = Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0));
        let prog = Arc::new(mm_isa::assemble("halt\n").unwrap());
        node.load_program(0, 0, prog, 0);
        let (mut slot, mut running, mut ur, mut uf) = (INERT, 0u32, 0u16, 0u16);
        let mut scratch = StepScratch::new();
        let mut ctx = NodeCtx {
            node: &mut node,
            slot: &mut slot,
            running: &mut running,
            user_running: &mut ur,
            user_finished: &mut uf,
        };
        // Loaded but unstepped: one user thread running.
        let (dr, df) = ctx.retire(true, None);
        assert_eq!((dr, df), (1, 0));
        assert_eq!(*ctx.slot, AWAKE);
        assert_ne!(*ctx.running, 0);
        // Run the halt through.
        let mut now = 0;
        while *ctx.user_running > 0 && now < 32 {
            let progressed = ctx.step(now, &mut scratch);
            let deadline = ctx.node.next_activity(now);
            let (dr, df) = ctx.retire(progressed, deadline);
            assert!((-1..=1).contains(&dr));
            assert!((0..=1).contains(&df));
            now += 1;
        }
        assert_eq!((*ctx.user_running, *ctx.user_finished), (0, 1));
        assert_eq!(*ctx.running & 0xff, 0, "cluster 0 drained");
        // Quiescent with nothing scheduled: the slot goes inert.
        while ctx.node.next_activity(now).is_some() {
            let p = ctx.step(now, &mut scratch);
            let d = ctx.node.next_activity(now);
            ctx.retire(p, d);
            now += 1;
        }
        let p = ctx.step(now, &mut scratch);
        assert!(!p);
        let d = ctx.node.next_activity(now);
        ctx.retire(p, d);
        assert_eq!(*ctx.slot, INERT);
    }
}
