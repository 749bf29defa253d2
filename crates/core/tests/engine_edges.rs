//! Edge cases of the quiescence engine: machines with nothing left to
//! do must fast-forward, a one-node mesh must run, and halts inside a
//! window must be reported at the dense loop's cycle.

use mm_core::machine::{MMachine, MachineConfig};
use mm_isa::assemble;
use mm_sim::HState;
use std::sync::Arc;

fn build(dims: (u8, u8, u8)) -> MMachine {
    MMachine::build(MachineConfig::with_dims(dims.0, dims.1, dims.2)).expect("valid config")
}

/// Once every user thread has halted and in-flight work has drained,
/// the machine is provably quiescent: a long `run_cycles` only moves
/// the clock, performing no work.
#[test]
fn all_halted_machine_quiesces_immediately() {
    let mut m = build((2, 1, 1));
    let prog = Arc::new(assemble("add r1, #1, r1\n halt\n").unwrap());
    for node in 0..m.node_count() {
        m.load_user_program(node, 0, &prog).unwrap();
    }
    m.run_until_halt(10_000).expect("trivial programs halt");
    for node in 0..m.node_count() {
        assert_eq!(m.node(node).thread_state(0, 0), HState::Halted);
    }

    let before = m.stats();
    m.run_cycles(1_000_000);
    let after = m.stats();
    assert_eq!(after.cycles, before.cycles + 1_000_000, "clock advanced");
    assert_eq!(
        after.instructions, before.instructions,
        "no instruction issued while quiescent"
    );
    assert_eq!(after.messages, before.messages);
}

/// A machine with no user programs at all is quiescent from the first
/// step: nothing issues over an arbitrarily long horizon.
#[test]
fn empty_machine_is_quiescent_from_boot() {
    let mut m = build((2, 2, 1));
    m.run_cycles(500_000);
    let stats = m.stats();
    assert_eq!(stats.cycles, 500_000);
    assert_eq!(stats.instructions, 0);
    assert_eq!(stats.messages, 0);
}

/// A 1-node mesh (one ladder slot, loopback only) runs programs to
/// completion.
#[test]
fn one_node_mesh_runs_to_completion() {
    let mut m = build((1, 1, 1));
    let prog = Arc::new(assemble("add r1, #20, r2\n add r2, #22, r2\n halt\n").unwrap());
    m.load_user_program(0, 0, &prog).unwrap();
    m.run_until_halt(10_000).expect("halts");
    assert_eq!(m.user_reg(0, 0, 0, 2).unwrap().as_i64(), 42);
}

/// Two nodes whose threads halt at different cycles of one window: the
/// window reports one past the later halt, the cycle the dense loop's
/// halt predicate first holds at.
#[test]
fn two_halts_in_one_window_report_one_past_the_later() {
    let load = |m: &mut MMachine| {
        let quick = Arc::new(assemble("halt\n").unwrap());
        let slow = Arc::new(assemble("add r1, #1, r2\n add r1, #2, r3\n halt\n").unwrap());
        m.load_user_program(0, 0, &quick).unwrap();
        m.load_user_program(1, 0, &slow).unwrap();
    };
    // The dense loop, one cycle at a time: when each thread halted.
    let mut dense = build((2, 1, 1));
    load(&mut dense);
    let mut halted_at = [None; 2];
    while halted_at.iter().any(Option::is_none) {
        let now = dense.cycle();
        dense.naive_step();
        for (node, at) in halted_at.iter_mut().enumerate() {
            if at.is_none() && dense.node(node).thread_state(0, 0) == HState::Halted {
                *at = Some(now);
            }
        }
    }
    let [Some(first), Some(last)] = halted_at else {
        unreachable!()
    };
    assert!(first < last, "the threads halt at different cycles");
    // The machine's windows are three cycles wide (hop latency 2), and
    // both halts fall in the first.
    assert!(last < 3, "both halts in the first window: {halted_at:?}");
    let mut m = build((2, 1, 1));
    load(&mut m);
    assert_eq!(m.run_until_halt(1_000).unwrap(), last + 1);
}
