//! Pins the checkpoint bytes of the §4.3 coherence handlers mid-protocol.
//!
//! The 2-node ping-pong is checkpointed at a cycle where the handlers
//! hold everything their codec writes: the home's directory entry with
//! its sharer, a grant composed but still waiting out its invalidation
//! charge (a checkpoint tag-8 action) beside another charged action,
//! faulted records waiting on both nodes, and the requester's
//! remote-block frame. The image's FNV-1a-64 digest is a constant, so a
//! change to the handlers' in-memory representation that moved a single
//! checkpoint byte fails here; the restored machine must also finish on
//! the cycle the uninterrupted run does.

mod common;

use common::fnv1a64;
use mm_bench::coherence::{build_coherence_scenario, check_coherence, RUN_LIMIT};
use mm_core::machine::MMachine;

/// Ping-pong rounds per node.
const ITERS: u64 = 64;
/// The checkpoint cycle: node 0's grant to node 1 is still charged.
const AT: u64 = 180;
/// FNV-1a-64 of the checkpoint image at [`AT`].
const DIGEST: u64 = 0x83fa_638a_cfce_bf64;
/// The cycle every user thread has halted by, with or without the
/// checkpoint round trip.
const HALT: u64 = 8902;

fn scenario() -> MMachine {
    build_coherence_scenario((2, 1, 1), ITERS, Some(1))
}

#[test]
fn coherence_checkpoint_bytes_are_pinned() {
    let mut m = scenario();
    m.run_cycles(AT);
    let [home, requester] = [0, 1].map(|i| m.coherence_handlers()[i].inspect());
    assert_eq!(home.directory_blocks, 1);
    assert_eq!(home.sharers, 1);
    assert_eq!(home.pending_actions, 2, "the charged grant and one more");
    assert!(home.waiting_records > 0 && requester.waiting_records > 0);
    assert_eq!(requester.frames, 1);

    let image = m.checkpoint();
    let mut restored = scenario();
    restored.restore(&image).expect("image restores");
    let halted = restored.run_until_halt(RUN_LIMIT).expect("halts");
    check_coherence(&restored, ITERS);
    assert_eq!(m.run_until_halt(RUN_LIMIT).expect("halts"), halted);
    assert_eq!(fnv1a64(&image), DIGEST, "coherence checkpoint bytes moved");
    assert_eq!(halted, HALT);
}
