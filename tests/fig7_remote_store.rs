//! The paper's Fig. 7 executes verbatim: a remote store is one SEND on
//! the sending side and a three-instruction dispatch-handler loop on the
//! receiving side — and the data lands in remote memory.

use m_machine::isa::{assemble, Perm, Reg, Word};
use m_machine::machine::{MMachine, MachineConfig};
use std::sync::Arc;

#[test]
fn fig7_remote_store_code_runs() {
    let mut m = MMachine::build(MachineConfig::small()).unwrap();

    // Fig. 7(a): LOAD A[0], MC1 ; SEND Raddr, Rdip, #1.
    // (Our `mov` stands in for the LOAD of A[0] — the value is in a
    // register either way; the SEND is identical.)
    let sender = Arc::new(assemble("mov #99, mc1\n send r10, r11, #1\n halt\n").unwrap());
    let target = m.home_va(1, 1);
    m.load_user_program(0, 0, &sender).unwrap();
    m.set_user_reg(
        0,
        0,
        0,
        Reg::Int(10),
        m.make_ptr(Perm::ReadWrite, 0, target).unwrap(),
    );
    let dip = m.image().write_dip;
    m.set_user_reg(0, 0, 0, Reg::Int(11), dip);

    m.run_until_halt(100_000).unwrap();
    m.run_cycles(300);

    // Fig. 7(b) ran on node 1's message H-Thread: JMP Rnet; MOVE Rnet,R1;
    // STORE Rnet,R1; BRANCH loop — check its effect.
    assert_eq!(
        m.node(1).mem.peek_va(target).unwrap().word.bits(),
        99,
        "the remote store message was not performed"
    );
    assert!(m.faulted_threads().is_empty());

    // The handler's code really is the Fig. 7 shape: three instructions
    // between dispatch and the branch back.
    let img = m.image();
    let entry = img.p0_handler.entry("remote_write").unwrap() as usize;
    let code = &img.p0_handler.instrs()[entry..entry + 3];
    let text: Vec<String> = code.iter().map(ToString::to_string).collect();
    assert!(text[0].contains("mov rnet"), "{text:?}");
    assert!(text[1].contains("st rnet"), "{text:?}");
    assert!(text[2].contains("br"), "{text:?}");
}

#[test]
fn illegal_dip_faults_before_sending() {
    let mut m = MMachine::build(MachineConfig::small()).unwrap();
    let sender = Arc::new(assemble("send r10, r11, #0\n halt\n").unwrap());
    m.load_user_program(0, 0, &sender).unwrap();
    m.set_user_reg(
        0,
        0,
        0,
        Reg::Int(10),
        m.make_ptr(Perm::ReadWrite, 0, m.home_va(1, 1)).unwrap(),
    );
    // A data word is not a legal DIP: "If an illegal DIP is used, a fault
    // will occur on the sending thread before the message is sent" (§4.1).
    m.set_user_reg(0, 0, 0, Reg::Int(11), Word::from_u64(1));
    m.run_until_halt(100_000).unwrap();
    let faults = m.faulted_threads();
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].3, m_machine::sim::Fault::BadDip);
    assert_eq!(m.node(0).net.stats().sent, 0);
}
