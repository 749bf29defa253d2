//! The exception V-Thread (§3.3): synchronous faults queue a record that
//! a handler H-Thread in slot 5 of the faulting cluster can consume.

use mm_isa::assemble;
use mm_isa::reg::Reg;
use mm_net::message::NodeCoord;
use mm_sim::{Fault, HState, Node, NodeConfig, StepScratch, EXCEPTION_SLOT};
use std::sync::Arc;

/// Advance `n` one cycle with a scratch of its own (the cycle engines
/// recycle theirs across steps).
fn step(n: &mut Node, now: u64) -> bool {
    n.step_with(now, &mut StepScratch::new())
}

#[test]
fn exception_handler_consumes_fault_records() {
    let mut n = Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0));

    // A user thread that faults (load through a non-pointer).
    let bad = Arc::new(assemble("add r0, #1, r4\n ld [r1], r2\n halt\n").unwrap());
    n.load_program(0, 0, bad, 0);

    // The exception handler on cluster 0, slot 5: read the three record
    // words (descriptor, PC, cycle) and tally them.
    let handler = Arc::new(
        assemble(
            "loop: mov evq, r1\n\
             mov evq, r2\n\
             mov evq, r3\n\
             add r5, #1, r5\n\
             br loop\n",
        )
        .unwrap(),
    );
    n.load_program(0, EXCEPTION_SLOT, handler, 0);

    for cycle in 0..300 {
        step(&mut n, cycle);
    }
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::NotAPointer));
    // The handler consumed the record: queue drained, counter bumped.
    assert_eq!(n.exception_queue_len(0), 0);
    assert_eq!(n.read_reg(0, EXCEPTION_SLOT, Reg::Int(5)).bits(), 1);
    // The record's descriptor names the fault and the PC names the
    // faulting instruction (index 1).
    assert_eq!(
        n.read_reg(0, EXCEPTION_SLOT, Reg::Int(2)).bits(),
        1,
        "faulting PC"
    );
    // The user thread's earlier work is intact.
    assert_eq!(n.read_reg(0, 0, Reg::Int(4)).bits(), 1);
}

#[test]
fn faults_on_other_clusters_route_to_their_own_queues() {
    let mut n = Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0));
    let bad = Arc::new(assemble("ld [r1], r2\n halt\n").unwrap());
    n.load_program(2, 0, bad, 0);
    for cycle in 0..100 {
        step(&mut n, cycle);
    }
    assert_eq!(n.exception_queue_len(2), 3, "record on cluster 2");
    assert_eq!(n.exception_queue_len(0), 0);
}
