//! Integration tests for the MAP node: issue timing, scoreboards,
//! H-Thread register communication, V-Thread interleaving, events,
//! protection and message launch.

use mm_isa::assemble;
use mm_isa::pointer::{GuardedPointer, Perm};
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_mem::lpt::Lpt;
use mm_mem::ltlb::{BlockStatus, LtlbEntry};
use mm_net::gtlb::GdtEntry;
use mm_net::message::NodeCoord;
use mm_sim::{Fault, HState, Node, NodeConfig, StepScratch, EVENT_SLOT};
use std::sync::Arc;

/// Advance `n` one cycle with a scratch of its own (the cycle engines
/// recycle theirs across steps).
fn step(n: &mut Node, now: u64) -> bool {
    n.step_with(now, &mut StepScratch::new())
}

fn node() -> Node {
    Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0))
}

/// A node with virtual pages 0..8 identity-ish mapped (ppn 16+vpn).
fn booted_node() -> Node {
    let mut n = node();
    let lpt = Lpt::new(1024, 64);
    n.mem.set_lpt(lpt);
    for vpn in 0..8 {
        let entry = LtlbEntry::uniform(vpn, 16 + vpn, BlockStatus::ReadWrite, 0);
        let slot = lpt.insert(n.mem.sdram_mut(), &entry).unwrap();
        assert!(n.mem.tlb_install(slot));
    }
    n
}

fn run(n: &mut Node, limit: u64) -> u64 {
    for cycle in 0..limit {
        step(n, cycle);
        if n.user_threads_done() {
            // Drain in-flight responses (e.g. a load racing a halt).
            for extra in cycle + 1..cycle + 64 {
                step(n, extra);
            }
            return cycle;
        }
    }
    panic!("did not finish in {limit} cycles");
}

fn rw_ptr(addr: u64, log2_len: u8) -> Word {
    Word::from_pointer(GuardedPointer::new(Perm::ReadWrite, log2_len, addr).unwrap())
}

#[test]
fn dependent_int_chain_is_one_ipc() {
    let mut n = node();
    let prog = Arc::new(
        assemble("add r1, #1, r1\n add r1, #1, r1\n add r1, #1, r1\n add r1, #1, r1\n halt\n")
            .unwrap(),
    );
    n.load_program(0, 0, prog, 0);
    let end = run(&mut n, 100);
    assert_eq!(n.read_reg(0, 0, Reg::Int(1)).as_i64(), 4);
    // 4 adds + halt, dependent, single-cycle ALU: ~1 IPC.
    assert!(end <= 6, "took {end} cycles");
}

#[test]
fn three_wide_issue_single_cycle() {
    let mut n = node();
    let prog =
        Arc::new(assemble("add r1, #1, r2 | sub r1, #1, r3 | fadd f1, f2, f4\n halt\n").unwrap());
    n.load_program(0, 0, prog, 0);
    run(&mut n, 20);
    assert_eq!(n.read_reg(0, 0, Reg::Int(2)).as_i64(), 1);
    assert_eq!(n.read_reg(0, 0, Reg::Int(3)).as_i64(), -1);
    let s = n.stats();
    assert_eq!(s.int_ops, 3, "two ALU ops + halt");
    assert_eq!(s.fp_ops, 1);
}

#[test]
fn load_hit_latency_is_three_cycles() {
    let mut n = booted_node();
    // Warm the line, then measure a dependent load-use.
    n.mem.poke_va(8, mm_mem::MemWord::new(Word::from_u64(77)));
    let warm = Arc::new(assemble("ld [r1], r2\n halt\n").unwrap());
    n.write_reg(0, 0, Reg::Int(1), rw_ptr(8, 4));
    n.load_program(0, 0, warm.clone(), 0);
    run(&mut n, 200);
    assert_eq!(n.read_reg(0, 0, Reg::Int(2)).bits(), 77);

    // Measure: issue ld at cycle T, consumer needs r2.
    let mut n2 = booted_node();
    n2.mem.poke_va(8, mm_mem::MemWord::new(Word::from_u64(77)));
    // Warm the cache with a prior run of the same access.
    n2.write_reg(0, 0, Reg::Int(1), rw_ptr(8, 4));
    n2.load_program(0, 0, warm, 0);
    run(&mut n2, 200);
    // Reload a fresh thread doing ld + dependent add + halt.
    let prog = Arc::new(assemble("ld [r1], r2\n add r2, #1, r3\n halt\n").unwrap());
    n2.write_reg(0, 1, Reg::Int(1), rw_ptr(8, 4));
    n2.load_program(0, 1, prog, 0);
    let start = 1000;
    let mut done_at = None;
    for cycle in start..start + 50 {
        step(&mut n2, cycle);
        if n2.thread_state(0, 1) == HState::Halted {
            done_at = Some(cycle);
            break;
        }
    }
    // ld issues at `start`, r2 full at start+3, add at start+3, add
    // writes r3 at start+4, halt at start+4 (issued then).
    let done = done_at.expect("halted");
    assert!(
        done - start <= 6,
        "cache-hit load-use took {} cycles",
        done - start
    );
    assert_eq!(n2.read_reg(0, 1, Reg::Int(3)).bits(), 78);
}

#[test]
fn inter_cluster_register_write_synchronizes() {
    let mut n = node();
    // Cluster 0 computes and sends to cluster 1's r5; cluster 1 empties
    // r5 first and blocks until the value arrives (Fig. 5b pattern).
    let p0 = Arc::new(assemble("add r1, #41, r2\n add r2, #1, h1.r5\n halt\n").unwrap());
    let p1 = Arc::new(assemble("empty r5\n add r5, #0, r6\n halt\n").unwrap());
    n.load_program(0, 0, p0, 0);
    n.load_program(1, 0, p1, 0);
    run(&mut n, 100);
    assert_eq!(n.read_reg(1, 0, Reg::Int(6)).as_i64(), 42);
    assert!(n.stats().cswitch_transfers >= 1);
}

#[test]
fn fig6_loop_synchronization_via_gcc() {
    let mut n = node();
    // H-Thread 0 (cluster 0) runs 5 iterations, broadcasting done-ness on
    // gcc1; H-Thread 1 (cluster 1) echoes on gcc3. The two-register
    // interlock keeps either from running ahead (Fig. 6).
    let h0 = Arc::new(
        assemble(
            "empty gcc3\n\
             loop0: add r1, #1, r1\n\
             eq r1, #5, gcc1\n\
             mov gcc3, r2\n\
             empty gcc3\n\
             brf gcc1, loop0\n\
             halt\n",
        )
        .unwrap(),
    );
    let h1 = Arc::new(
        assemble(
            "empty gcc1\n\
             loop1: add r3, #2, r3\n\
             mov gcc1, r2\n\
             empty gcc1\n\
             mov #1, gcc3\n\
             brf r2, loop1\n\
             halt\n",
        )
        .unwrap(),
    );
    n.load_program(0, 0, h0, 0);
    n.load_program(1, 0, h1, 0);
    run(&mut n, 2000);
    assert_eq!(n.thread_state(0, 0), HState::Halted);
    assert_eq!(n.thread_state(1, 0), HState::Halted);
    assert_eq!(n.read_reg(0, 0, Reg::Int(1)).as_i64(), 5);
    assert_eq!(
        n.read_reg(1, 0, Reg::Int(3)).as_i64(),
        10,
        "both ran 5 iterations"
    );
}

#[test]
fn vthread_interleaving_masks_fp_latency() {
    // One thread of dependent FP ops vs. the same work with a second
    // V-Thread interleaved: the pair finishes in less than twice the
    // solo time (zero-cost interleaving, §3.2 / Fig. 4).
    let src = "fadd f1, f2, f1\n fadd f1, f2, f1\n fadd f1, f2, f1\n fadd f1, f2, f1\n \
               fadd f1, f2, f1\n fadd f1, f2, f1\n fadd f1, f2, f1\n fadd f1, f2, f1\n halt\n";
    let prog = Arc::new(assemble(src).unwrap());

    let mut solo = node();
    solo.load_program(0, 0, prog.clone(), 0);
    let t_solo = run(&mut solo, 1000);

    let mut duo = node();
    duo.load_program(0, 0, prog.clone(), 0);
    duo.load_program(0, 1, prog, 0);
    let t_duo = run(&mut duo, 1000);

    assert!(
        t_duo < 2 * t_solo,
        "no latency masking: solo {t_solo}, duo {t_duo}"
    );
    // Dependent 3-cycle FP chain leaves ≥2/3 of slots idle: the second
    // thread should fit almost entirely into the bubbles.
    assert!(
        t_duo <= t_solo + 4,
        "interleaving not zero-cost: solo {t_solo}, duo {t_duo}"
    );
}

#[test]
fn protection_faults_are_synchronous() {
    // Load through a non-pointer.
    let mut n = node();
    let prog = Arc::new(assemble("ld [r1], r2\n halt\n").unwrap());
    n.load_program(0, 0, prog, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::NotAPointer));
    assert!(n.exception_queue_len(0) >= 3, "exception record queued");

    // Store through a read-only pointer.
    let mut n = booted_node();
    let prog = Arc::new(assemble("st r2, [r1]\n halt\n").unwrap());
    n.write_reg(
        0,
        0,
        Reg::Int(1),
        Word::from_pointer(GuardedPointer::new(Perm::Read, 4, 8).unwrap()),
    );
    n.load_program(0, 0, prog, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::Permission));

    // LEA escaping its segment.
    let mut n = node();
    let prog = Arc::new(assemble("lea r1, #100, r2\n halt\n").unwrap());
    n.write_reg(0, 0, Reg::Int(1), rw_ptr(8, 3));
    n.load_program(0, 0, prog, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::OutOfSegment));

    // Privileged op in a user slot.
    let mut n = node();
    let prog = Arc::new(assemble("setptr #2, #4, #8, r1\n halt\n").unwrap());
    n.load_program(0, 0, prog, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::Privilege));
}

#[test]
fn division_by_zero_faults() {
    let mut n = node();
    let prog = Arc::new(assemble("div r1, r0, r2\n halt\n").unwrap());
    n.load_program(0, 0, prog, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::DivByZero));
}

#[test]
fn ltlb_miss_event_reaches_cluster1_queue_and_mrestart_completes() {
    let mut n = booted_node();
    // User thread touches unmapped page 100.
    let user = Arc::new(assemble("ld [r1], r2\n add r2, #1, r3\n halt\n").unwrap());
    let va = 100 * 512 + 4;
    n.write_reg(0, 0, Reg::Int(1), rw_ptr(va, 10));
    n.load_program(0, 0, user, 0);

    // Handler on cluster 1's event H-Thread: read the record, install the
    // mapping (pre-staged by "boot" at LPT slot), replay.
    // r8 holds the LPT slot address of the pre-inserted entry.
    let handler = Arc::new(
        assemble(
            "loop: mov evq, r4\n\
             mov evq, r5\n\
             mov evq, r6\n\
             tlbwr r8\n\
             mrestart r4, r5, r6\n\
             br loop\n",
        )
        .unwrap(),
    );
    // Pre-insert the LPT entry for vpn 100 (but not in the LTLB).
    let lpt = n.mem.lpt().unwrap();
    let entry = LtlbEntry::uniform(100, 40, BlockStatus::ReadWrite, 0);
    let slot_addr = lpt.insert(n.mem.sdram_mut(), &entry).unwrap();
    n.write_reg(1, EVENT_SLOT, Reg::Int(8), Word::from_u64(slot_addr));
    n.load_program(1, EVENT_SLOT, handler, 0);

    for cycle in 0..2000 {
        step(&mut n, cycle);
        if n.thread_state(0, 0) == HState::Halted {
            assert_eq!(n.read_reg(0, 0, Reg::Int(3)).bits(), 1);
            assert_eq!(n.stats().events_enqueued[1], 1);
            return;
        }
    }
    panic!("user thread never completed after LTLB miss handling");
}

#[test]
fn send_launches_message_and_queue_is_register_mapped() {
    let mut n = node();
    // Map page 0 to ourselves.
    n.net
        .gtlb_mut()
        .add_entry(GdtEntry::new(0, NodeCoord::new(0, 0, 0), (0, 0, 0), 4, 0));

    let user = Arc::new(assemble("mov #42, mc1\n send r10, r11, #1\n halt\n").unwrap());
    n.write_reg(0, 0, Reg::Int(10), rw_ptr(64, 6));
    n.write_reg(
        0,
        0,
        Reg::Int(11),
        Word::from_pointer(GuardedPointer::new(Perm::Enter, 0, 1).unwrap()),
    );
    n.load_program(0, 0, user, 0);

    // Manual fabric pump (mm-core owns this in the full machine).
    let mut fabric = mm_net::fabric::Fabric::new(mm_net::fabric::FabricConfig {
        dims: (1, 1, 1),
        ..Default::default()
    });
    let (mut staged, mut arrived) = (Vec::new(), Vec::new());
    for cycle in 0..100 {
        step(&mut n, cycle);
        n.net.drain_outbox_into(&mut staged);
        for p in staged.drain(..) {
            fabric.inject(cycle, p);
        }
        arrived.clear();
        fabric.deliveries_into(cycle, &mut arrived);
        for p in &arrived {
            n.net.deliver(p);
        }
    }
    assert_eq!(n.stats().sends, 1);
    assert_eq!(n.net.queue_len(mm_isa::op::Priority::P0), 1);
    // Delivered words: DIP, addr, body.
    assert_eq!(
        n.net
            .pop_word(mm_isa::op::Priority::P0)
            .unwrap()
            .pointer()
            .unwrap()
            .perm(),
        Perm::Enter
    );
    let addr = n.net.pop_word(mm_isa::op::Priority::P0).unwrap();
    assert!(addr.is_pointer(), "capability travels in the message");
    assert_eq!(addr.pointer().unwrap().addr(), 64);
    assert_eq!(n.net.pop_word(mm_isa::op::Priority::P0).unwrap().bits(), 42);
}

#[test]
fn send_with_bad_dip_faults_before_sending() {
    let mut n = node();
    n.net
        .gtlb_mut()
        .add_entry(GdtEntry::new(0, NodeCoord::new(0, 0, 0), (0, 0, 0), 4, 0));
    let user = Arc::new(assemble("send r10, r11, #0\n halt\n").unwrap());
    n.write_reg(0, 0, Reg::Int(10), rw_ptr(64, 6));
    n.write_reg(0, 0, Reg::Int(11), Word::from_u64(3)); // not a pointer
    n.load_program(0, 0, user, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::BadDip));
    assert_eq!(n.net.stats().sent, 0, "nothing entered the network");
}

#[test]
fn send_to_unmapped_address_faults() {
    let mut n = node();
    let user = Arc::new(assemble("send r10, r11, #0\n halt\n").unwrap());
    n.write_reg(0, 0, Reg::Int(10), rw_ptr(64, 6));
    n.write_reg(
        0,
        0,
        Reg::Int(11),
        Word::from_pointer(GuardedPointer::new(Perm::Enter, 0, 0).unwrap()),
    );
    n.load_program(0, 0, user, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::UnmappedSend));
}

#[test]
fn gcc_pair_ownership_enforced() {
    let mut n = node();
    // Cluster 0 may not write gcc3 (pair 1).
    let prog = Arc::new(assemble("mov #1, gcc3\n halt\n").unwrap());
    n.load_program(0, 0, prog, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::GccOwnership));
}

#[test]
fn rnet_read_from_user_slot_faults() {
    let mut n = node();
    let prog = Arc::new(assemble("mov rnet, r1\n halt\n").unwrap());
    n.load_program(0, 0, prog, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::BadQueueAccess));
}

#[test]
fn halted_threads_stop_issuing() {
    let mut n = node();
    let prog = Arc::new(assemble("add r1, #1, r1\n halt\n").unwrap());
    n.load_program(0, 0, prog, 0);
    run(&mut n, 50);
    let after = n.stats().instructions;
    for cycle in 100..200 {
        step(&mut n, cycle);
    }
    assert_eq!(n.stats().instructions, after);
}

#[test]
fn branch_bubble_costs_cycles() {
    // A tight counted loop: each taken branch costs the 2-cycle bubble.
    let mut n = node();
    let prog = Arc::new(
        assemble("loop: add r1, #1, r1\n eq r1, #10, gcc1\n brf gcc1, loop\n halt\n").unwrap(),
    );
    n.load_program(0, 0, prog, 0);
    let t = run(&mut n, 1000);
    assert_eq!(n.read_reg(0, 0, Reg::Int(1)).as_i64(), 10);
    // 10 iterations × (3 instructions + ~2 gcc wait + 2 bubble).
    assert!(t >= 45, "branches too cheap: {t}");
    assert!(t <= 100, "branches too dear: {t}");
    assert_eq!(n.stats().branches_taken, 9);
}

#[test]
fn store_load_round_trip_through_memory() {
    let mut n = booted_node();
    let prog = Arc::new(assemble("st r2, [r1]\n ld [r1], r3\n add r3, #1, r4\n halt\n").unwrap());
    n.write_reg(0, 0, Reg::Int(1), rw_ptr(16, 5));
    n.write_reg(0, 0, Reg::Int(2), Word::from_u64(99));
    n.load_program(0, 0, prog, 0);
    run(&mut n, 500);
    assert_eq!(n.read_reg(0, 0, Reg::Int(4)).bits(), 100);
}

#[test]
fn synchronizing_store_then_load_pair() {
    let mut n = booted_node();
    // Producer/consumer on one thread: st.af sets full, ld.fe consumes.
    let prog = Arc::new(assemble("st.af r2, [r1]\n ld.fe [r1], r3\n halt\n").unwrap());
    n.write_reg(0, 0, Reg::Int(1), rw_ptr(24, 5));
    n.write_reg(0, 0, Reg::Int(2), Word::from_u64(7));
    n.load_program(0, 0, prog, 0);
    run(&mut n, 500);
    assert_eq!(n.read_reg(0, 0, Reg::Int(3)).bits(), 7);
    assert!(!n.mem.peek_va(24).unwrap().sync, "ld.fe emptied the word");
}

// ---------------------------------------------------------------------------
// §3.2 protected calls: ENTER-permission guarded pointers as entry points.
// ---------------------------------------------------------------------------

fn enter_ptr(pc: u32) -> Word {
    Word::from_pointer(GuardedPointer::new(Perm::Enter, 0, u64::from(pc)).unwrap())
}

/// The protected-call program: the caller may only reach `task_body`
/// through the ENTER capability in r12, and the body returns through the
/// ENTER capability in r13. Neither address is forgeable by user code.
const PROTECTED_CALL_SRC: &str = "\
    jmp r12
ret_here:
    add r4, #1, r4
    halt
task_body:
    add r4, #10, r4
    jmp r13
";

#[test]
fn protected_call_entry_and_return() {
    let mut n = node();
    let prog = Arc::new(assemble(PROTECTED_CALL_SRC).unwrap());
    let body = prog.entry("task_body").unwrap();
    let ret = prog.entry("ret_here").unwrap();
    n.write_reg(0, 0, Reg::Int(12), enter_ptr(body));
    n.write_reg(0, 0, Reg::Int(13), enter_ptr(ret));
    n.load_program(0, 0, prog, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Halted);
    // Body ran exactly once, then control returned past the call site.
    assert_eq!(n.read_reg(0, 0, Reg::Int(4)).as_i64(), 11);
    // Entry and return each went through an ENTER pointer.
    assert_eq!(n.stats().protected_calls, 2);
}

#[test]
fn out_of_segment_protected_jump_faults() {
    let mut n = node();
    let prog = Arc::new(assemble(PROTECTED_CALL_SRC).unwrap());
    // An ENTER capability pointing past the end of the program: the jump
    // itself is legal (the permission allows execution) but the fetch at
    // the bogus PC faults the thread.
    n.write_reg(0, 0, Reg::Int(12), enter_ptr(500));
    n.load_program(0, 0, prog, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::PcOutOfRange));
}

#[test]
fn jmp_through_data_pointer_faults_permission() {
    let mut n = node();
    let prog = Arc::new(assemble("jmp r12\n halt\n").unwrap());
    // A read-write data capability must not be usable as a jump target.
    n.write_reg(0, 0, Reg::Int(12), rw_ptr(8, 4));
    n.load_program(0, 0, prog, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::Permission));
    assert_eq!(n.stats().protected_calls, 0);
}

#[test]
fn jmp_through_raw_integer_faults() {
    let mut n = node();
    let prog = Arc::new(assemble("jmp r12\n halt\n").unwrap());
    // User code cannot forge an entry point from integer bits.
    n.write_reg(0, 0, Reg::Int(12), Word::from_u64(3));
    n.load_program(0, 0, prog, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::NotAPointer));
    assert_eq!(n.stats().protected_calls, 0);
}

#[test]
fn execute_perm_jmp_is_not_a_protected_call() {
    let mut n = node();
    let prog = Arc::new(assemble(PROTECTED_CALL_SRC).unwrap());
    let body = prog.entry("task_body").unwrap();
    let ret = prog.entry("ret_here").unwrap();
    let x_ptr =
        |pc: u32| Word::from_pointer(GuardedPointer::new(Perm::Execute, 0, u64::from(pc)).unwrap());
    n.write_reg(0, 0, Reg::Int(12), x_ptr(body));
    n.write_reg(0, 0, Reg::Int(13), x_ptr(ret));
    n.load_program(0, 0, prog, 0);
    run(&mut n, 100);
    assert_eq!(n.thread_state(0, 0), HState::Halted);
    assert_eq!(n.read_reg(0, 0, Reg::Int(4)).as_i64(), 11);
    // Plain EXECUTE jumps are ordinary control flow, not protected entry.
    assert_eq!(n.stats().protected_calls, 0);
}

#[test]
fn node_state_round_trips_mid_flight() {
    use mm_faults::{Dec, Enc};

    // A memory-touching loop plus a second thread, checkpointed while
    // writebacks, memory responses and the loop are all in flight.
    let src = "loop: ld [r2], r3\n\
               add r3, #1, r3\n\
               st r3, [r2]\n\
               br loop\n";
    let prog = Arc::new(assemble(src).unwrap());
    let side = Arc::new(assemble("fadd f1, f2, f3\n fmul f3, f3, f4\n halt\n").unwrap());
    let mut n = booted_node();
    n.write_reg(0, 0, Reg::Int(2), rw_ptr(16, 5));
    n.load_program(0, 0, Arc::clone(&prog), 0);
    n.load_program(1, 0, Arc::clone(&side), 0);
    for cycle in 0..25 {
        step(&mut n, cycle);
    }

    let mut e = Enc::default();
    n.save_state(&mut e, 25);
    let bytes = e.finish();

    let mut restored = booted_node();
    restored.load_program(0, 0, prog, 0);
    restored.load_program(1, 0, side, 0);
    let mut d = Dec::new(&bytes);
    restored.load_state(&mut d, 25).unwrap();
    assert_eq!(d.remaining(), 0);

    // Re-save must be byte-identical.
    let mut e2 = Enc::default();
    restored.save_state(&mut e2, 25);
    assert_eq!(e2.finish(), bytes, "re-saved checkpoint differs");

    // Continue both nodes: identical architectural and counter state.
    for cycle in 25..200 {
        step(&mut n, cycle);
        step(&mut restored, cycle);
    }
    assert_eq!(
        n.read_reg(0, 0, Reg::Int(3)).bits(),
        restored.read_reg(0, 0, Reg::Int(3)).bits()
    );
    assert!(n.read_reg(0, 0, Reg::Int(3)).bits() > 0, "loop progressed");
    assert_eq!(n.stats().instructions, restored.stats().instructions);
    assert_eq!(n.stats().issue_probes, restored.stats().issue_probes);
    assert_eq!(n.stats().responses, restored.stats().responses);
    assert_eq!(n.inspect(), restored.inspect());

    // A node missing a loaded program refuses the checkpoint.
    let mut bare = booted_node();
    assert!(bare.load_state(&mut Dec::new(&bytes), 25).is_err());
}

#[test]
fn stall_window_gates_issue_but_not_memory() {
    let mut n = booted_node();
    let prog = Arc::new(
        assemble("add r1, #1, r1\n add r1, #1, r1\n add r1, #1, r1\n add r1, #1, r1\n halt\n")
            .unwrap(),
    );
    n.load_program(0, 0, prog, 0);
    step(&mut n, 0);
    let issued_before = n.stats().instructions;
    assert_eq!(issued_before, 1);

    // Stall issue for cycles 1..=9: the pending writeback still lands
    // (register becomes 1), but no further instruction issues.
    n.stall_issue_until(10);
    assert_eq!(n.issue_stalled_until(), 10);
    for cycle in 1..10 {
        step(&mut n, cycle);
    }
    assert_eq!(n.stats().instructions, 1, "issue gated during window");
    assert_eq!(
        n.read_reg(0, 0, Reg::Int(1)).as_i64(),
        1,
        "writeback landed"
    );
    assert_eq!(n.next_activity(9), Some(10), "wakes when the window ends");

    // Window closed: the loop finishes normally.
    for cycle in 10..30 {
        step(&mut n, cycle);
    }
    assert_eq!(n.thread_state(0, 0), HState::Halted);
    assert_eq!(n.read_reg(0, 0, Reg::Int(1)).as_i64(), 4);

    // A fatal window never produces a wake-up deadline.
    let mut dead = booted_node();
    let prog2 = Arc::new(assemble("add r1, #1, r1\n halt\n").unwrap());
    dead.load_program(0, 0, prog2, 0);
    dead.stall_issue_until(u64::MAX);
    assert!(!step(&mut dead, 0));
    assert_eq!(dead.next_activity(0), None);
    assert_eq!(dead.thread_state(0, 0), HState::Running);
}

/// The per-cluster halted masks follow the threads' states through a
/// halt, a fault, a reload and a checkpoint restore (they are rebuilt
/// from the restored states, not written to the image).
#[test]
fn halted_masks_follow_thread_states() {
    use mm_faults::{Dec, Enc};

    let halt = Arc::new(assemble("add r1, #1, r1\n halt\n").unwrap());
    let fault = Arc::new(assemble("div r1, #0, r2\n halt\n").unwrap());
    let spin = Arc::new(assemble("loop: br loop\n").unwrap());
    let load = |n: &mut Node| {
        n.load_program(0, 0, Arc::clone(&halt), 0);
        n.load_program(1, 3, Arc::clone(&halt), 0);
        n.load_program(2, 1, Arc::clone(&fault), 0);
        n.load_program(3, 2, Arc::clone(&spin), 0);
    };
    let check = |n: &Node| {
        for c in 0..4 {
            for s in 0..6 {
                let halted = n.halted_slots(c) >> s & 1 == 1;
                assert_eq!(halted, n.thread_state(c, s) == HState::Halted, "({c}, {s})");
            }
        }
    };
    let save = |n: &Node, now: u64| {
        let mut e = Enc::default();
        n.save_state(&mut e, now);
        e.finish()
    };
    let mut n = node();
    load(&mut n);
    let before = save(&n, 0);
    for cycle in 0..16 {
        step(&mut n, cycle);
        check(&n);
    }
    assert_eq!((n.halted_slots(0), n.halted_slots(1)), (0b1, 0b1000));
    assert_eq!(
        (n.halted_slots(2), n.halted_slots(3)),
        (0, 0),
        "faulted, spinning"
    );

    let after = save(&n, 16);
    let mut restored = node();
    load(&mut restored);
    restored.load_state(&mut Dec::new(&after), 16).unwrap();
    check(&restored);
    assert_eq!(restored.halted_slots(1), 0b1000);
    // An image from before the halts, restored over them, clears them.
    restored.load_state(&mut Dec::new(&before), 0).unwrap();
    check(&restored);
    assert_eq!(restored.halted_slots(0) | restored.halted_slots(1), 0);

    // Reloading a halted slot makes it run again.
    n.load_program(0, 0, Arc::clone(&spin), 0);
    check(&n);
    assert_eq!(n.halted_slots(0), 0);
}
