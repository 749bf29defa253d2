//! The `next_activity` contract behind the machine's quiescence-aware
//! cycle engine.
//!
//! A cycle-exact simulator is a set of components stepped under one
//! clock. The naive loop steps *every* component on *every* cycle; on a
//! large mesh most of those steps are no-ops, because most nodes spend
//! most cycles with nothing scheduled and every thread blocked. The
//! engine turns that observation into a contract:
//!
//! 1. **Step one cycle.** Each component has an inherent step method
//!    that advances it through cycle `now` — [`Node::step_with`](crate::Node::step_with),
//!    [`MemorySystem::step_into`](mm_mem::memsys::MemorySystem::step_into),
//!    [`Fabric::pop_due`](mm_net::fabric::Fabric::pop_due), and
//!    the coherence engine's `step` in `mm-core`. Signatures vary
//!    because outputs vary (responses, deliveries, firmware effects);
//!    the *timing* discipline is shared: a step at cycle `t` performs
//!    exactly the work the dense loop would have performed at `t`.
//! 2. **Report the next possible activity.** Each component's inherent
//!    `next_activity` — [`Node::next_activity`](crate::Node::next_activity),
//!    [`MemorySystem::next_activity`](mm_mem::memsys::MemorySystem::next_activity),
//!    [`Fabric::next_activity`](mm_net::fabric::Fabric::next_activity)
//!    and the coherence handler's in `mm-core` — returns the earliest
//!    future cycle at which the component can do work *without new
//!    external input* — its earliest pending deadline (scheduled
//!    writebacks, C-Switch transfers, in-flight flits, DRAM/SECDED
//!    completions, resend backoffs), or `None` when provably quiescent.
//!
//! A min-deadline scheduler (`MMachine::run_cycles` / `run_until` in
//! `mm-core`) then fast-forwards the global clock over cycles in which
//! every component is quiescent, and skips quiescent components inside
//! busy cycles, while remaining cycle-exact: stepping a component at
//! any cycle strictly before its `next_activity`, with no external
//! input delivered in between, is a provable no-op.
//!
//! ## Quiescence invariants
//!
//! The contract is sound only if both of these hold:
//!
//! * **Deadlines are conservative.** `next_activity` may be *earlier*
//!   than the first real work (the scheduler just burns a no-op step),
//!   but never later.
//! * **External input wakes the component.** Anything that could
//!   unblock a component from outside — a fabric delivery, a firmware
//!   `mrestart`, a register poke from the host — must cause the
//!   scheduler to resume stepping it. `next_activity` deliberately does
//!   not model other components; the scheduler owns cross-component
//!   wake-ups.

/// Fold two optional deadlines into the earlier one — the min-reduction
/// used by [`Node::next_activity`](crate::Node::next_activity) and the
/// machine-level scheduler in `mm-core`. (`mm-mem` sits below this crate in the dependency DAG and
/// keeps a local fold with the same semantics.)
#[must_use]
pub fn earliest(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{step, Node};
    use crate::NodeConfig;
    use mm_mem::memsys::{MemConfig, MemRequest, MemorySystem};
    use mm_net::fabric::{Fabric, FabricConfig};
    use mm_net::message::NodeCoord;
    use std::sync::Arc;

    #[test]
    fn earliest_folds_options() {
        assert_eq!(earliest(None, None), None);
        assert_eq!(earliest(Some(3), None), Some(3));
        assert_eq!(earliest(None, Some(7)), Some(7));
        assert_eq!(earliest(Some(9), Some(4)), Some(4));
    }

    #[test]
    fn idle_node_is_quiescent() {
        let mut node = Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0));
        let progressed = step(&mut node, 0);
        assert!(!progressed, "an empty node does nothing");
        assert_eq!(node.next_activity(0), None);
    }

    #[test]
    fn running_thread_keeps_reporting_progress() {
        let mut node = Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0));
        let prog = Arc::new(mm_isa::assemble("add r1, #1, r1\n add r1, #1, r1\n halt\n").unwrap());
        node.load_program(0, 0, prog, 0);
        assert!(step(&mut node, 0), "first add issues");
        // The writeback of the first add is now pending: a deadline.
        assert!(node.next_activity(0).is_some());
        let mut cycle = 1;
        while node.thread_state(0, 0) == crate::HState::Running && cycle < 32 {
            step(&mut node, cycle);
            cycle += 1;
        }
        assert_eq!(node.thread_state(0, 0), crate::HState::Halted);
        // Drain the last writeback, then the node is quiescent.
        while node.next_activity(cycle - 1).is_some() {
            step(&mut node, cycle);
            cycle += 1;
        }
        assert!(!step(&mut node, cycle), "halted node makes no progress");
        assert_eq!(node.next_activity(cycle), None);
    }

    #[test]
    fn memsys_deadline_tracks_pipeline() {
        let mut ms = MemorySystem::new(MemConfig::default());
        assert_eq!(ms.next_activity(0), None);
        ms.submit(MemRequest::load(1, 0, 0)).unwrap();
        // A queued bank request pops next cycle.
        assert_eq!(ms.next_activity(5), Some(6));
    }

    #[test]
    fn fabric_deadline_is_next_delivery() {
        let f = Fabric::new(FabricConfig::default());
        assert_eq!(f.next_activity(), None);
    }
}
