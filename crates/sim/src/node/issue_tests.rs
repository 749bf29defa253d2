//! Tests of the issue stage's four mechanisms: the rotated set-bit
//! slot scan, the descriptor probe, the take/restore borrow of the
//! program across `execute`, and the parking of blocked threads.
//!
//! The probe is checked against the enum-walking readiness test it
//! replaced, kept here verbatim as the reference (`mod reference`).

use super::*;
use mm_isa::op::{SyncPost, SyncPre};
use mm_isa::reg::SCOREBOARD_ALL_FULL;
use mm_mem::memsys::MemRequest;
use mm_net::message::{Message, MsgBody, Packet, WireMeta};
use proptest::prelude::*;

/// The enum-walking probe `Node::probe` replaced — `QueueNeeds`, the
/// `*_ready` walk and the two-pass memo derivation, unchanged from the
/// old `issue_cluster`. It panics (in `ThreadRegs::read`) on a queue
/// register used as a memory base or `mrestart` address once that
/// queue has a word, so the generators below keep those two operand
/// positions to plain registers.
mod reference {
    use super::*;

    /// Accumulator threaded through a readiness probe: cumulative queue
    /// words needed (`[NetIn, EvQ]`), plus the hypothetical mode used to
    /// derive [`QueueBlock`] proofs.
    pub(super) struct QueueNeeds {
        counts: [usize; 2],
        /// When set, queue occupancy checks are skipped (queues treated as
        /// arbitrarily full): a `true` probe result then proves the
        /// instruction is blocked *only* by queue words.
        assume_available: bool,
    }

    impl QueueNeeds {
        /// A real readiness probe.
        fn checked() -> QueueNeeds {
            QueueNeeds {
                counts: [0; 2],
                assume_available: false,
            }
        }

        /// A hypothetical probe with infinite queue words.
        fn assumed() -> QueueNeeds {
            QueueNeeds {
                counts: [0; 2],
                assume_available: true,
            }
        }
    }

    impl Node {
        /// The old `issue_cluster`'s probe-and-memoize block for the
        /// instruction at `pc`: the ready bit and the memo it chose.
        pub(super) fn reference_probe(
            &self,
            c: usize,
            slot: usize,
            pc: u32,
            instr: &Instruction,
        ) -> (bool, Option<IssueBlock>) {
            let mut memo = None;
            let mut qn = QueueNeeds::checked();
            let ready = self.instr_ready(c, slot, instr, &mut qn);
            if !ready {
                // If a hypothetical probe with full queues
                // *would* issue, the only blockers are queue
                // words — memoize the totals so the re-probe
                // waits for them. Otherwise, if readiness
                // depends on nothing outside this thread's
                // register file, memoize its version.
                let mut hypothetical = QueueNeeds::assumed();
                if self.instr_ready(c, slot, instr, &mut hypothetical)
                    && hypothetical.counts != [0, 0]
                {
                    #[allow(clippy::cast_possible_truncation)]
                    {
                        let needs = [
                            hypothetical.counts[0].min(u16::MAX as usize) as u16,
                            hypothetical.counts[1].min(u16::MAX as usize) as u16,
                        ];
                        memo = Some(IssueBlock::Queue(QueueBlock { pc, needs }));
                    }
                } else if instr.mem_op.is_none()
                    && !matches!(instr.int_op, Some(IntOp::MRestart { .. }))
                {
                    memo = Some(IssueBlock::Regs {
                        pc,
                        version: self.threads[c][slot].regs.version(),
                    });
                }
            }
            (ready, memo)
        }

        fn src_ready(&self, c: usize, slot: usize, src: &Src, qn: &mut QueueNeeds) -> bool {
            match src {
                Src::Imm(_) => true,
                Src::Reg(r) => self.reg_ready(c, slot, *r, qn),
            }
        }

        fn reg_ready(&self, c: usize, slot: usize, reg: Reg, qn: &mut QueueNeeds) -> bool {
            if reg.is_queue() {
                let idx = usize::from(reg == Reg::EvQ);
                qn.counts[idx] += 1;
                if qn.assume_available {
                    // Hypothetical-probe mode: queues treated as full, so a
                    // `true` overall result means only queue words block.
                    return true;
                }
                match self.queue_words_available(c, slot, reg) {
                    // Wrong slot/cluster: let it issue, then fault in execute.
                    None => true,
                    Some(avail) => avail >= qn.counts[idx],
                }
            } else {
                self.threads[c][slot].regs.is_full(reg)
            }
        }

        /// Local destinations must be full to issue (WAW protection and the
        /// empty/fill receive protocol, §3.1).
        fn dst_ready(&self, c: usize, slot: usize, dst: &Dst) -> bool {
            match dst {
                Dst::Local(reg) if !reg.is_queue() => self.threads[c][slot].regs.is_full(*reg),
                _ => true,
            }
        }

        fn int_op_ready(&self, c: usize, slot: usize, op: &IntOp, qn: &mut QueueNeeds) -> bool {
            match op {
                IntOp::Alu { a, b, dst, .. } | IntOp::Cmp { a, b, dst, .. } => {
                    self.src_ready(c, slot, a, qn)
                        && self.src_ready(c, slot, b, qn)
                        && self.dst_ready(c, slot, dst)
                }
                IntOp::Mov { src, dst } => {
                    self.src_ready(c, slot, src, qn) && self.dst_ready(c, slot, dst)
                }
                IntOp::Lea { base, offset, dst } => {
                    self.reg_ready(c, slot, *base, qn)
                        && self.src_ready(c, slot, offset, qn)
                        && self.dst_ready(c, slot, dst)
                }
                IntOp::SetPtr {
                    perm,
                    log2_len,
                    addr,
                    dst,
                } => {
                    self.src_ready(c, slot, perm, qn)
                        && self.src_ready(c, slot, log2_len, qn)
                        && self.src_ready(c, slot, addr, qn)
                        && self.dst_ready(c, slot, dst)
                }
                IntOp::Branch { cond, .. } => match cond {
                    BranchCond::Always => true,
                    BranchCond::IfTrue(r) | BranchCond::IfFalse(r) => {
                        self.reg_ready(c, slot, *r, qn)
                    }
                },
                IntOp::JmpReg { target } => self.reg_ready(c, slot, *target, qn),
                IntOp::Empty { .. } | IntOp::Halt | IntOp::Nop => true,
                IntOp::WrReg { addr, value } => {
                    self.src_ready(c, slot, addr, qn) && self.src_ready(c, slot, value, qn)
                }
                IntOp::GProbe { va, dst } => {
                    self.src_ready(c, slot, va, qn) && self.dst_ready(c, slot, dst)
                }
                IntOp::TlbWr { entry_ptr } => self.reg_ready(c, slot, *entry_ptr, qn),
                IntOp::MRestart { desc, vaddr, data } => {
                    self.reg_ready(c, slot, *desc, qn)
                        && self.reg_ready(c, slot, *vaddr, qn)
                        && self.reg_ready(c, slot, *data, qn)
                        && self
                            .mem
                            .can_accept(self.threads[c][slot].regs.read(*vaddr).bits(), false)
                }
                IntOp::NodeId { dst } => self.dst_ready(c, slot, dst),
            }
        }

        #[allow(clippy::too_many_lines)]
        fn instr_ready(
            &self,
            c: usize,
            slot: usize,
            instr: &Instruction,
            qn: &mut QueueNeeds,
        ) -> bool {
            let mut ready = true;

            if let Some(op) = &instr.int_op {
                ready &= self.int_op_ready(c, slot, op, qn);
            }
            if ready {
                if let Some(slot_op) = &instr.mem_op {
                    match slot_op {
                        MemSlotOp::Int(op) => ready &= self.int_op_ready(c, slot, op, qn),
                        MemSlotOp::Mem(op) => match op {
                            MemOp::Load { base, dst, .. } => {
                                ready &= self.reg_ready(c, slot, *base, qn)
                                    && self.dst_ready(c, slot, dst)
                                    && self.mem_can_accept_via(c, slot, *base);
                            }
                            MemOp::Store { src, base, .. } => {
                                ready &= self.src_ready(c, slot, src, qn)
                                    && self.reg_ready(c, slot, *base, qn)
                                    && self.mem_can_accept_via(c, slot, *base);
                            }
                            MemOp::Send {
                                dest,
                                dip,
                                len,
                                priority,
                            } => {
                                ready &= self.reg_ready(c, slot, *dest, qn)
                                    && self.reg_ready(c, slot, *dip, qn);
                                for i in 1..=*len {
                                    ready &= self.reg_ready(c, slot, Reg::Mc(i), qn);
                                }
                                if *priority == Priority::P0 && self.net.credits() == 0 {
                                    // "Threads attempting to execute a SEND
                                    // instruction will stall" (§4.1).
                                    ready = false;
                                }
                            }
                        },
                    }
                }
            }
            if ready {
                if let Some(op) = &instr.fp_op {
                    ready &= match op {
                        FpOp::Alu { a, b, dst, .. } | FpOp::Cmp { a, b, dst, .. } => {
                            self.src_ready(c, slot, a, qn)
                                && self.src_ready(c, slot, b, qn)
                                && self.dst_ready(c, slot, dst)
                        }
                        FpOp::Madd { a, b, c: cc, dst } => {
                            self.src_ready(c, slot, a, qn)
                                && self.src_ready(c, slot, b, qn)
                                && self.src_ready(c, slot, cc, qn)
                                && self.dst_ready(c, slot, dst)
                        }
                        FpOp::Mov { src, dst }
                        | FpOp::Itof { src, dst }
                        | FpOp::Ftoi { src, dst } => {
                            self.src_ready(c, slot, src, qn) && self.dst_ready(c, slot, dst)
                        }
                        FpOp::Empty { .. } | FpOp::Nop => true,
                    };
                }
            }
            ready
        }

        /// Can the memory system take a request through the pointer in `base`?
        fn mem_can_accept_via(&self, c: usize, slot: usize, base: Reg) -> bool {
            let w = self.threads[c][slot].regs.read(base);
            match w.pointer() {
                Ok(p) => self.mem.can_accept(p.addr(), p.perm() == Perm::Physical),
                Err(_) => true, // will fault at execute, not stall
            }
        }
    }
}

// ----------------------------------------------------------------------
// (a) Slot scan
// ----------------------------------------------------------------------

/// Every `running` mask × every cursor: the rotated set-bit scan visits
/// exactly the slots, in exactly the order, of the modulo walk it
/// replaced.
#[test]
fn slot_scan_matches_modulo_walk() {
    for running in 0u8..(1 << NUM_SLOTS) {
        for rr in 0..NUM_SLOTS {
            let mut expected = Vec::new();
            for k in 0..NUM_SLOTS {
                let slot = (rr + k) % NUM_SLOTS;
                if running & (1u8 << slot) == 0 {
                    continue;
                }
                expected.push(slot);
            }
            let got: Vec<usize> = SlotScan::new(running, rr).collect();
            assert_eq!(got, expected, "running {running:#08b}, cursor {rr}");
        }
    }
}

// ----------------------------------------------------------------------
// (b) Descriptor probe ≡ enum walk
// ----------------------------------------------------------------------

fn some_or_none<S>(s: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), s.prop_map(Some)]
}

/// Any register without side effects on read.
fn plain_reg() -> impl Strategy<Value = Reg> {
    prop_oneof![
        (0u8..16).prop_map(Reg::Int),
        (0u8..16).prop_map(Reg::Fp),
        (0u8..8).prop_map(Reg::Gcc),
        (0u8..8).prop_map(Reg::Mc),
    ]
}

/// Any register, the queue heads twice as likely as one class.
fn reg() -> impl Strategy<Value = Reg> {
    prop_oneof![plain_reg(), plain_reg(), Just(Reg::NetIn), Just(Reg::EvQ)]
}

fn src() -> impl Strategy<Value = Src> {
    prop_oneof![
        reg().prop_map(Src::Reg),
        reg().prop_map(Src::Reg),
        any::<i64>().prop_map(Src::Imm)
    ]
}

fn dst() -> impl Strategy<Value = Dst> {
    prop_oneof![
        reg().prop_map(Dst::Local),
        reg().prop_map(Dst::Local),
        (0u8..4, reg()).prop_map(|(cluster, reg)| Dst::Remote { cluster, reg }),
    ]
}

fn int_op() -> impl Strategy<Value = IntOp> {
    prop_oneof![
        (src(), src(), dst()).prop_map(|(a, b, dst)| IntOp::Alu {
            kind: AluKind::Add,
            a,
            b,
            dst
        }),
        (src(), src(), dst()).prop_map(|(a, b, dst)| IntOp::Cmp {
            kind: CmpKind::Lt,
            a,
            b,
            dst
        }),
        (src(), dst()).prop_map(|(src, dst)| IntOp::Mov { src, dst }),
        (reg(), src(), dst()).prop_map(|(base, offset, dst)| IntOp::Lea { base, offset, dst }),
        (src(), src(), src(), dst()).prop_map(|(perm, log2_len, addr, dst)| IntOp::SetPtr {
            perm,
            log2_len,
            addr,
            dst
        }),
        Just(IntOp::Branch {
            cond: BranchCond::Always,
            target: 0
        }),
        reg().prop_map(|r| IntOp::Branch {
            cond: BranchCond::IfTrue(r),
            target: 3
        }),
        reg().prop_map(|r| IntOp::Branch {
            cond: BranchCond::IfFalse(r),
            target: 3
        }),
        reg().prop_map(|target| IntOp::JmpReg { target }),
        prop::collection::vec(plain_reg(), 1..4).prop_map(|regs| IntOp::Empty { regs }),
        (src(), src()).prop_map(|(addr, value)| IntOp::WrReg { addr, value }),
        (src(), dst()).prop_map(|(va, dst)| IntOp::GProbe { va, dst }),
        reg().prop_map(|entry_ptr| IntOp::TlbWr { entry_ptr }),
        (reg(), plain_reg(), reg()).prop_map(|(desc, vaddr, data)| IntOp::MRestart {
            desc,
            vaddr,
            data
        }),
        dst().prop_map(|dst| IntOp::NodeId { dst }),
        Just(IntOp::Halt),
        Just(IntOp::Nop),
    ]
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (plain_reg(), dst()).prop_map(|(base, dst)| MemOp::Load {
            base,
            offset: 1,
            dst,
            pre: SyncPre::Any,
            post: SyncPost::Unchanged,
        }),
        (src(), plain_reg()).prop_map(|(src, base)| MemOp::Store {
            src,
            base,
            offset: 0,
            pre: SyncPre::Any,
            post: SyncPost::Unchanged,
        }),
        (reg(), reg(), 0u8..=8, 0u8..2).prop_map(|(dest, dip, len, p1)| MemOp::Send {
            dest,
            dip,
            len,
            priority: if p1 == 1 { Priority::P1 } else { Priority::P0 },
        }),
    ]
}

fn mem_slot_op() -> impl Strategy<Value = MemSlotOp> {
    prop_oneof![
        mem_op().prop_map(MemSlotOp::Mem),
        mem_op().prop_map(MemSlotOp::Mem),
        int_op().prop_map(MemSlotOp::Int),
        // `mrestart` beside (or as) the memory-slot operation.
        (reg(), plain_reg(), reg())
            .prop_map(|(desc, vaddr, data)| MemSlotOp::Int(IntOp::MRestart { desc, vaddr, data })),
    ]
}

fn fp_op() -> impl Strategy<Value = FpOp> {
    prop_oneof![
        (src(), src(), dst()).prop_map(|(a, b, dst)| FpOp::Alu {
            kind: FpKind::Mul,
            a,
            b,
            dst
        }),
        (src(), src(), src(), dst()).prop_map(|(a, b, c, dst)| FpOp::Madd { a, b, c, dst }),
        (src(), src(), dst()).prop_map(|(a, b, dst)| FpOp::Cmp {
            kind: CmpKind::Ge,
            a,
            b,
            dst
        }),
        (src(), dst()).prop_map(|(src, dst)| FpOp::Mov { src, dst }),
        (src(), dst()).prop_map(|(src, dst)| FpOp::Itof { src, dst }),
        (src(), dst()).prop_map(|(src, dst)| FpOp::Ftoi { src, dst }),
        prop::collection::vec(plain_reg(), 1..4).prop_map(|regs| FpOp::Empty { regs }),
        Just(FpOp::Nop),
    ]
}

fn instruction() -> impl Strategy<Value = Instruction> {
    (
        some_or_none(int_op()),
        some_or_none(mem_slot_op()),
        some_or_none(fp_op()),
    )
        .prop_map(|(int_op, mem_op, fp_op)| Instruction {
            int_op,
            mem_op,
            fp_op,
        })
}

/// Everything outside the instruction that a probe reads.
#[derive(Debug, Clone)]
struct ProbeState {
    cluster: usize,
    slot: usize,
    /// The thread's scoreboard word.
    full: u64,
    /// `(kind, address)` per integer register: raw word, or a
    /// read-write / physical / enter pointer.
    int_values: Vec<(u8, u64)>,
    /// Words waiting in the probing cluster's event and exception queues.
    evq_words: [usize; 2],
    /// Words waiting in the priority-0 / priority-1 message queues.
    net_words: [usize; 2],
    credits: u32,
    /// Requests parked in each of the four bank queues (depth 4).
    bank_fill: Vec<usize>,
}

fn probe_state() -> impl Strategy<Value = ProbeState> {
    (
        (0usize..NUM_CLUSTERS, 0usize..NUM_SLOTS),
        // All full / mostly full / half full: an instruction names up
        // to a dozen registers, so a uniform word would almost never
        // let the probe past the mask.
        (any::<u64>(), any::<u64>(), any::<u64>(), 0u8..4),
        prop::collection::vec((0u8..4, 0u64..64), 16),
        (0usize..5, 0usize..5, 0usize..6, 0usize..6),
        0u32..3,
        prop::collection::vec(0usize..=4, 4),
    )
        .prop_map(
            |((cluster, slot), (a, b, c, density), int_values, queues, credits, bank_fill)| {
                let full = match density {
                    0 => u64::MAX,
                    1 => a | b | c,
                    2 => a | b,
                    _ => a,
                } & SCOREBOARD_ALL_FULL;
                ProbeState {
                    cluster,
                    slot,
                    full,
                    int_values,
                    evq_words: [queues.0, queues.1],
                    net_words: [queues.2, queues.3],
                    credits,
                    bank_fill,
                }
            },
        )
}

/// Every register with a scoreboard bit.
fn scoreboard_regs() -> impl Iterator<Item = Reg> {
    (0..16)
        .map(Reg::Int)
        .chain((0..16).map(Reg::Fp))
        .chain((0..8).map(Reg::Mc))
        .chain((0..8).map(Reg::Gcc))
}

fn node_in(state: &ProbeState) -> Node {
    let mut cfg = NodeConfig::default();
    cfg.iface.send_credits = state.credits;
    assert_eq!(cfg.mem.bank_queue_depth, 4);
    let mut n = Node::new(cfg, NodeCoord::new(0, 0, 0));
    let (c, slot) = (state.cluster, state.slot);

    for (i, &(kind, addr)) in state.int_values.iter().enumerate() {
        let ptr = |perm| Word::from_pointer(GuardedPointer::new(perm, 6, addr).unwrap());
        let value = match kind {
            0 => Word::from_u64(addr),
            1 => ptr(Perm::ReadWrite),
            2 => ptr(Perm::Physical),
            _ => ptr(Perm::Enter),
        };
        #[allow(clippy::cast_possible_truncation)]
        n.threads[c][slot].regs.write(Reg::Int(i as u8), value);
    }
    for reg in scoreboard_regs() {
        if state.full & (1u64 << reg.scoreboard_bit().unwrap()) == 0 {
            n.threads[c][slot].regs.clear(reg);
        }
    }

    for _ in 0..state.evq_words[0] {
        n.event_q[c].push_back(Word::ZERO);
    }
    for _ in 0..state.evq_words[1] {
        n.exc_q[c].push_back(Word::ZERO);
    }
    for (priority, words) in [
        (Priority::P0, state.net_words[0]),
        (Priority::P1, state.net_words[1]),
    ] {
        // One delivered message is DIP + address + 3 body words.
        let mut body = MsgBody::new();
        for _ in 0..3 {
            body.push(Word::ZERO);
        }
        n.net.deliver(Packet::User(Message {
            priority,
            // A remote sender: a loopback delivery would mint a credit.
            src: NodeCoord::new(1, 0, 0),
            dest: NodeCoord::new(0, 0, 0),
            dip: Word::ZERO,
            addr: Word::ZERO,
            body,
            wire: WireMeta::default(),
        }));
        for _ in words..5 {
            n.net.pop_word(priority).unwrap();
        }
        assert_eq!(n.net.words_available(priority), words);
    }
    assert_eq!(n.net.credits(), state.credits);

    for (bank, &fill) in state.bank_fill.iter().enumerate() {
        for id in 0..fill {
            n.mem
                .submit(MemRequest::load(id as u64, bank as u64, 0))
                .unwrap();
        }
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// On any instruction in any node state, the descriptor probe and
    /// the enum walk agree on the ready bit and on the memo chosen.
    #[test]
    fn descriptor_probe_matches_enum_walk(instr in instruction(), state in probe_state()) {
        let n = node_in(&state);
        let (c, slot) = (state.cluster, state.slot);
        let pc = 7;
        let (ready, memo) = n.reference_probe(c, slot, pc, &instr);
        let got = n.probe(c, slot, pc, IssueDesc::of(&instr));
        let expected = if ready {
            prop_assert_eq!(memo, None);
            Probe::Ready
        } else {
            Probe::Blocked(memo)
        };
        prop_assert_eq!(got, expected, "{} in {:?}", instr, state);
    }
}

// ----------------------------------------------------------------------
// (c) The program survives the take/restore borrow
// ----------------------------------------------------------------------

/// Step `n` until thread (0, 0) leaves `Running`; returns that cycle.
fn run_until_stopped(n: &mut Node) -> u64 {
    for cycle in 0..100 {
        step(n, cycle);
        if n.thread_state(0, 0) != HState::Running {
            return cycle;
        }
    }
    panic!("thread (0, 0) never stopped");
}

/// `execute` runs with the thread's program moved out of its slot; the
/// fault and halt exits must put it back. Observed directly, through
/// `save_state`'s has-program flag (a checkpoint taken the cycle after
/// the stop restores into a twin with the same program loaded, which
/// `load_state` refuses on a presence mismatch), and through the
/// refcount, which the borrow must leave alone.
#[test]
fn program_is_restored_after_fault_and_halt() {
    for (source, stopped) in [
        (
            "add r1, #1, r1\n div r1, #0, r2\n halt\n",
            HState::Faulted(Fault::DivByZero),
        ),
        ("add r1, #1, r1\n halt\n", HState::Halted),
        // Falling off the end faults in the fetch, before any borrow.
        ("add r1, #1, r1\n", HState::Faulted(Fault::PcOutOfRange)),
    ] {
        let prog = Arc::new(mm_isa::assemble(source).unwrap());
        let fresh = || {
            let mut n = Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0));
            n.load_program(0, 0, Arc::clone(&prog), 0);
            n
        };
        let mut n = fresh();
        assert_eq!(Arc::strong_count(&prog), 2);
        let at = run_until_stopped(&mut n);
        assert_eq!(n.thread_state(0, 0), stopped, "{source}");
        assert!(n.threads[0][0].ctl.program.is_some(), "{source}");
        assert_eq!(Arc::strong_count(&prog), 2, "{source}");

        step(&mut n, at + 1);
        let mut e = Enc::new();
        n.save_state(&mut e, at + 2);
        let image = e.finish();
        let mut twin = fresh();
        twin.load_state(&mut Dec::new(&image), at + 2)
            .expect(source);
        assert_eq!(twin.thread_state(0, 0), stopped);
        let mut e = Enc::new();
        twin.save_state(&mut e, at + 2);
        assert_eq!(e.finish(), image, "{source}");
    }
}

/// The slot scan trusts the cursor to be a slot index; a checkpoint is
/// outside input, so `load_state` is where that is enforced.
#[test]
fn load_state_rejects_an_out_of_range_cursor() {
    let fresh = || Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0));
    let mut e = Enc::new();
    fresh().save_state(&mut e, 0);
    let mut image = e.finish();
    // The image opens with cluster 0's `running` byte, then its cursor.
    assert_eq!(image[1], 0);
    #[allow(clippy::cast_possible_truncation)]
    {
        image[1] = NUM_SLOTS as u8;
    }
    let err = fresh().load_state(&mut Dec::new(&image), 0).unwrap_err();
    assert!(err.0.contains("round-robin cursor"), "{err:?}");
}

// ----------------------------------------------------------------------
// (d) Parking: every event that can break a parked thread's proof
//     unparks it
// ----------------------------------------------------------------------
//
// A missed unpark leaves the thread parked with a broken proof: the
// check after every step (debug builds) fails at once, and the thread
// would never issue again. Each case below parks a thread, fires one
// unpark event, and runs the thread to its `halt`.

fn is_parked(n: &Node, c: usize, slot: usize) -> bool {
    n.parked[c] & (1 << slot) != 0
}

fn fresh_node() -> Node {
    Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0))
}

fn load(n: &mut Node, c: usize, slot: usize, source: &str) {
    let prog = Arc::new(mm_isa::assemble(source).expect(source));
    n.load_program(c, slot, prog, 0);
}

/// Step `n` from cycle `from` until `(c, slot)` is parked; returns the
/// next cycle.
fn step_until_parked(n: &mut Node, c: usize, slot: usize, from: u64) -> u64 {
    for cycle in from..from + 50 {
        step(n, cycle);
        if is_parked(n, c, slot) {
            return cycle + 1;
        }
    }
    panic!("({c}, {slot}) never parked");
}

/// Step `n` from cycle `from` until `(c, slot)` halts; returns the next
/// cycle.
fn step_until_halted(n: &mut Node, c: usize, slot: usize, from: u64) -> u64 {
    for cycle in from..from + 100 {
        step(n, cycle);
        if n.thread_state(c, slot) == HState::Halted {
            return cycle + 1;
        }
    }
    panic!("({c}, {slot}) never halted");
}

/// A thread at `(c, 0)` parked on its own empty `r1` (a `Regs` proof).
fn parked_on_r1(n: &mut Node, c: usize, from: u64) -> u64 {
    load(n, c, 0, "empty r1\n add r1, #1, r2\n halt\n");
    let next = step_until_parked(n, c, 0, from);
    assert!(matches!(
        n.threads[c][0].ctl.blocked,
        Some(IssueBlock::Regs { .. })
    ));
    next
}

#[test]
fn evq_handler_wakes_on_a_memory_event() {
    let mut n = fresh_node();
    load(&mut n, 1, EVENT_SLOT, "mov evq, r4\n halt\n");
    let at = step_until_parked(&mut n, 1, EVENT_SLOT, 0);
    // A load from an unmapped page raises an LTLB miss for class 1.
    let va = Word::from_pointer(GuardedPointer::new(Perm::ReadWrite, 10, 100 * 512).unwrap());
    n.write_reg(0, 0, Reg::Int(1), va);
    load(&mut n, 0, 0, "ld [r1], r2\n halt\n");
    step_until_halted(&mut n, 1, EVENT_SLOT, at);
    assert_eq!(n.stats().events_enqueued[1], 1);
}

#[test]
fn evq_handler_wakes_on_push_event_record() {
    let mut n = fresh_node();
    load(&mut n, 0, EVENT_SLOT, "mov evq, r4\n halt\n");
    let at = step_until_parked(&mut n, 0, EVENT_SLOT, 0);
    assert!(n.push_event_record(0, [Word::from_u64(9); 3]));
    assert!(!is_parked(&n, 0, EVENT_SLOT));
    step_until_halted(&mut n, 0, EVENT_SLOT, at);
}

#[test]
fn exception_handler_wakes_on_a_fault() {
    let mut n = fresh_node();
    load(&mut n, 2, EXCEPTION_SLOT, "mov evq, r4\n halt\n");
    let at = step_until_parked(&mut n, 2, EXCEPTION_SLOT, 0);
    load(&mut n, 2, 0, "div r1, r0, r2\n halt\n");
    step_until_halted(&mut n, 2, EXCEPTION_SLOT, at);
    assert_eq!(n.thread_state(2, 0), HState::Faulted(Fault::DivByZero));
}

/// A fetch fault does not end the scan, so an exception handler the
/// fault unparks later in the same scan issues that same cycle, as it
/// did when every running slot was visited.
#[test]
fn exception_handler_wakes_within_the_faulting_scan() {
    let mut n = fresh_node();
    // The handler's first instruction issues and leaves the cursor at
    // slot 0, so the scan visits the faulting slot 0 before it.
    load(
        &mut n,
        0,
        EXCEPTION_SLOT,
        "add r0, #0, r9\n mov evq, r4\n halt\n",
    );
    let at = step_until_parked(&mut n, 0, EXCEPTION_SLOT, 0);
    assert_eq!(n.rr[0], 0);
    let prog = Arc::new(mm_isa::assemble("halt\n").unwrap());
    n.load_program(0, 0, prog, 1);
    step(&mut n, at);
    assert_eq!(n.thread_state(0, 0), HState::Faulted(Fault::PcOutOfRange));
    assert_eq!(n.stats().issued_per_slot[0][EXCEPTION_SLOT], 2);
    step_until_halted(&mut n, 0, EXCEPTION_SLOT, at + 1);
}

#[test]
fn rnet_handlers_wake_on_delivery() {
    for (c, priority) in [(2, Priority::P0), (3, Priority::P1)] {
        let mut n = fresh_node();
        load(&mut n, c, EVENT_SLOT, "mov rnet, r4\n halt\n");
        let at = step_until_parked(&mut n, c, EVENT_SLOT, 0);
        n.net.deliver(Packet::User(Message {
            priority,
            src: NodeCoord::new(1, 0, 0),
            dest: NodeCoord::new(0, 0, 0),
            dip: Word::ZERO,
            addr: Word::ZERO,
            body: MsgBody::new(),
            wire: WireMeta::default(),
        }));
        // Deliveries happen outside the node: the next issue stage
        // notices the words.
        assert!(is_parked(&n, c, EVENT_SLOT));
        step_until_halted(&mut n, c, EVENT_SLOT, at);
    }
}

#[test]
fn regs_proof_wakes_on_a_load_response() {
    let mut n = fresh_node();
    let phys = Word::from_pointer(GuardedPointer::new(Perm::Physical, 6, 0).unwrap());
    n.write_reg(0, 0, Reg::Int(5), phys);
    load(&mut n, 0, 0, "ld [r5], r1\n add r1, #1, r2\n halt\n");
    let at = step_until_parked(&mut n, 0, 0, 0);
    step_until_halted(&mut n, 0, 0, at);
    assert_eq!(n.stats().responses, 1);
}

#[test]
fn regs_proof_wakes_on_a_local_writeback() {
    let mut n = fresh_node();
    n.write_reg(0, 0, Reg::Int(3), Word::from_u64(1));
    load(&mut n, 0, 0, "div r1, r3, r2\n add r2, #1, r4\n halt\n");
    let at = step_until_parked(&mut n, 0, 0, 0);
    step_until_halted(&mut n, 0, 0, at);
}

#[test]
fn regs_proof_wakes_on_a_remote_cswitch_write() {
    let mut n = fresh_node();
    let at = parked_on_r1(&mut n, 1, 0);
    load(&mut n, 0, 0, "add r0, #5, h1.r1\n halt\n");
    step_until_halted(&mut n, 1, 0, at);
    assert_eq!(n.stats().cswitch_transfers, 1);
}

#[test]
fn regs_proof_wakes_on_every_cluster_for_a_gcc_broadcast() {
    let mut n = fresh_node();
    for c in 1..NUM_CLUSTERS {
        load(&mut n, c, 0, "empty gcc0\n brt gcc0, end\n end: halt\n");
    }
    let mut at = 0;
    for c in 1..NUM_CLUSTERS {
        at = step_until_parked(&mut n, c, 0, at);
    }
    load(&mut n, 0, 0, "eq r0, r0, gcc0\n halt\n");
    for cycle in at..at + 20 {
        step(&mut n, cycle);
    }
    for c in 1..NUM_CLUSTERS {
        assert_eq!(n.thread_state(c, 0), HState::Halted, "cluster {c}");
    }
}

#[test]
fn regs_proof_wakes_on_write_reg() {
    let mut n = fresh_node();
    let at = parked_on_r1(&mut n, 0, 0);
    n.write_reg(0, 0, Reg::Int(1), Word::from_u64(3));
    assert!(!is_parked(&n, 0, 0));
    let at = step_until_halted(&mut n, 0, 0, at);
    step(&mut n, at);
    assert_eq!(n.read_reg(0, 0, Reg::Int(2)).as_i64(), 4);
}

#[test]
fn reloading_a_parked_slot_unparks_it() {
    let mut n = fresh_node();
    let at = parked_on_r1(&mut n, 0, 0);
    load(&mut n, 0, 0, "halt\n");
    assert!(!is_parked(&n, 0, 0));
    step_until_halted(&mut n, 0, 0, at);
}

/// The mask is host state: a restore empties it, and the first step
/// re-parks exactly the threads the uninterrupted node kept parked,
/// probing no more than it did.
#[test]
fn restore_starts_with_an_empty_mask() {
    let mut n = fresh_node();
    let at = parked_on_r1(&mut n, 0, 0);
    load(&mut n, 3, EVENT_SLOT, "mov rnet, r4\n halt\n");
    let at = step_until_parked(&mut n, 3, EVENT_SLOT, at);
    let mut e = Enc::new();
    n.save_state(&mut e, at);
    let image = e.finish();
    let mut uninterrupted = n.clone();
    n.load_state(&mut Dec::new(&image), at).unwrap();
    assert_eq!(n.parked, [0; NUM_CLUSTERS]);
    step(&mut n, at);
    step(&mut uninterrupted, at);
    assert_eq!(n.parked, uninterrupted.parked);
    assert_eq!(n.stats.issue_probes, uninterrupted.stats.issue_probes);
    assert!(is_parked(&n, 0, 0) && is_parked(&n, 3, EVENT_SLOT));
}
