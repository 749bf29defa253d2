//! Smoke tests for the workspace surface itself: every facade re-export
//! must resolve, and the smallest configured machine must build, run a
//! trivial program, and halt.

use m_machine::machine::{MMachine, MachineConfig};

/// Touch one item from each re-exported crate so that a broken
/// re-export (or a workspace wiring regression) fails to compile here.
#[test]
fn facade_reexports_resolve() {
    assert_eq!(m_machine::isa::Word::from_i64(7).as_i64(), 7);
    let w = m_machine::mem::MemWord::default();
    assert_eq!(w.word.bits(), 0);
    let origin = m_machine::net::message::NodeCoord::new(0, 0, 0);
    assert_eq!((origin.x, origin.y, origin.z), (0, 0, 0));
    assert_eq!(m_machine::sim::NUM_CLUSTERS, 4);
    let _cfg = m_machine::sim::NodeConfig::default();
    let kernel = m_machine::runtime::stencil_kernel(6, 1);
    assert!(!kernel.programs.is_empty());
    let claims = m_machine::model::section1_claims();
    assert!(!claims.is_empty());
}

/// `MachineConfig::small()` must build a machine that can run a user
/// program to completion.
#[test]
fn small_machine_builds_and_halts() {
    let mut m = MMachine::build(MachineConfig::small()).expect("small config builds");
    let node = 0;
    let prog = std::sync::Arc::new(
        m_machine::isa::assemble("add r0, #35, r1\n add r1, #7, r1\n halt\n")
            .expect("probe assembles"),
    );
    m.load_user_program(node, 0, &prog)
        .expect("user slot 0 loads");
    m.run_until_halt(10_000).expect("machine halts");
    assert_eq!(
        m.user_reg(node, 0, 0, 1).expect("register reads").bits(),
        42
    );
}
