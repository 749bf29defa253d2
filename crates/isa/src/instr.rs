//! The 3-wide MAP instruction and assembled programs.

use crate::op::{BranchCond, FpOp, IntOp, MemOp, MemSlotOp, Priority};
use crate::reg::{Dst, Reg, Src};
use std::collections::BTreeMap;
use std::fmt;

/// One MAP instruction: up to three operations, one per execution unit,
/// which "issue together but may complete out of order" (§2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Instruction {
    /// Operation for the integer unit.
    pub int_op: Option<IntOp>,
    /// Operation for the memory unit (a memory access or any integer op).
    pub mem_op: Option<MemSlotOp>,
    /// Operation for the floating-point unit.
    pub fp_op: Option<FpOp>,
}

impl Instruction {
    /// An instruction with no operations (issues and retires immediately).
    #[must_use]
    pub fn empty() -> Instruction {
        Instruction::default()
    }

    /// Number of operations carried (0..=3).
    #[must_use]
    pub fn op_count(&self) -> usize {
        usize::from(self.int_op.is_some())
            + usize::from(self.mem_op.is_some())
            + usize::from(self.fp_op.is_some())
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let sep = |f: &mut fmt::Formatter<'_>, first: &mut bool| -> fmt::Result {
            if !*first {
                f.write_str(" | ")?;
            }
            *first = false;
            Ok(())
        };
        if let Some(op) = &self.int_op {
            sep(f, &mut first)?;
            write!(f, "{op}")?;
        }
        if let Some(op) = &self.mem_op {
            sep(f, &mut first)?;
            write!(f, "{op}")?;
        }
        if let Some(op) = &self.fp_op {
            sep(f, &mut first)?;
            write!(f, "{op}")?;
        }
        if first {
            f.write_str("nop")?;
        }
        Ok(())
    }
}

/// The structural (non-register) issue hazard of an instruction's
/// memory-unit slot, as data. The slot holds one operation, so at most
/// one of these applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemHazard {
    /// Nothing beyond operand fullness gates the slot.
    #[default]
    None,
    /// A load or store: the bank queue addressed through the guarded
    /// pointer in this base register (never a queue register) must have
    /// room.
    Access(Reg),
    /// A priority-0 `send`: the node needs a send credit (§4.1).
    SendCredit,
    /// An `mrestart` executed on the memory unit's ALU: the bank queue
    /// addressed by the raw virtual address in this `vaddr` register
    /// (never a queue register) must have room.
    Restart(Reg),
}

/// Everything the issue stage must check before an instruction may
/// issue, precomputed so the per-cycle probe is a mask compare instead
/// of a walk over the operation enums. Built once per instruction when
/// a [`Program`] is constructed; `Copy` and 16 bytes.
///
/// An instruction is ready when
/// `scoreboard & need == need`, its structural hazards
/// ([`IssueDesc::int_restart`], [`IssueDesc::mem`]) clear, and each
/// readable queue holds at least [`IssueDesc::queue_words`] words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IssueDesc {
    /// Scoreboard bits ([`Reg::scoreboard_bit`]) that must be full: every
    /// non-queue source register of the int/mem/fp operations and every
    /// non-queue [`Dst::Local`] destination (WAW protection and the
    /// empty/fill receive protocol, §3.1).
    pub need: u64,
    /// Queue-register words the instruction consumes, `[NetIn, EvQ]`
    /// (saturating; three operations of at most three sources bound it
    /// at nine).
    pub queue_words: [u8; 2],
    /// `vaddr` register of an `mrestart` in the integer slot: the bank
    /// queue it addresses must have room. Independent of
    /// [`IssueDesc::mem`] — the same instruction may also carry a
    /// memory-slot operation. `None` when there is no such operation or
    /// the register is a queue (unreadable without dequeuing).
    pub int_restart: Option<Reg>,
    /// The memory-unit slot's structural hazard.
    pub mem: MemHazard,
    /// Readiness depends on nothing outside the issuing thread's own
    /// register file and queues: the memory slot is empty and no
    /// `mrestart` is carried. Only then may a failed probe be memoized
    /// against the register file's mutation counter.
    pub regs_only: bool,
}

// One entry per instruction of every loaded program: keep it to two words.
const _: () = assert!(std::mem::size_of::<IssueDesc>() <= 16);

/// A register readable without side effects (a queue read dequeues).
fn peekable(reg: Reg) -> Option<Reg> {
    (!reg.is_queue()).then_some(reg)
}

impl IssueDesc {
    /// Derive the descriptor of `instr`.
    ///
    /// Register operands are expected to be [`Reg::is_valid`], as the
    /// assembler guarantees.
    #[must_use]
    pub fn of(instr: &Instruction) -> IssueDesc {
        let mut d = IssueDesc {
            regs_only: instr.mem_op.is_none(),
            ..IssueDesc::default()
        };
        if let Some(op) = &instr.int_op {
            if let Some(vaddr) = d.int_op(op) {
                d.int_restart = peekable(vaddr);
                d.regs_only = false;
            }
        }
        match &instr.mem_op {
            None => {}
            Some(MemSlotOp::Int(op)) => {
                if let Some(vaddr) = d.int_op(op) {
                    d.mem = peekable(vaddr).map_or(MemHazard::None, MemHazard::Restart);
                }
            }
            Some(MemSlotOp::Mem(op)) => d.mem_op(op),
        }
        if let Some(op) = &instr.fp_op {
            d.fp_op(op);
        }
        d
    }

    fn reg(&mut self, reg: Reg) {
        match reg.scoreboard_bit() {
            Some(bit) => self.need |= 1u64 << bit,
            None => {
                let q = &mut self.queue_words[usize::from(reg == Reg::EvQ)];
                *q = q.saturating_add(1);
            }
        }
    }

    fn src(&mut self, src: &Src) {
        if let Src::Reg(r) = src {
            self.reg(*r);
        }
    }

    fn dst(&mut self, dst: &Dst) {
        match dst {
            Dst::Local(r) if !r.is_queue() => self.reg(*r),
            _ => {}
        }
    }

    /// Accumulate an integer operation's operands; returns the `vaddr`
    /// register when the operation is an `mrestart`.
    fn int_op(&mut self, op: &IntOp) -> Option<Reg> {
        match op {
            IntOp::Alu { a, b, dst, .. } | IntOp::Cmp { a, b, dst, .. } => {
                self.src(a);
                self.src(b);
                self.dst(dst);
            }
            IntOp::Mov { src, dst } => {
                self.src(src);
                self.dst(dst);
            }
            IntOp::Lea { base, offset, dst } => {
                self.reg(*base);
                self.src(offset);
                self.dst(dst);
            }
            IntOp::SetPtr {
                perm,
                log2_len,
                addr,
                dst,
            } => {
                self.src(perm);
                self.src(log2_len);
                self.src(addr);
                self.dst(dst);
            }
            IntOp::Branch { cond, .. } => match cond {
                BranchCond::Always => {}
                BranchCond::IfTrue(r) | BranchCond::IfFalse(r) => self.reg(*r),
            },
            IntOp::JmpReg { target } => self.reg(*target),
            IntOp::Empty { .. } | IntOp::Halt | IntOp::Nop => {}
            IntOp::WrReg { addr, value } => {
                self.src(addr);
                self.src(value);
            }
            IntOp::GProbe { va, dst } => {
                self.src(va);
                self.dst(dst);
            }
            IntOp::TlbWr { entry_ptr } => self.reg(*entry_ptr),
            IntOp::MRestart { desc, vaddr, data } => {
                self.reg(*desc);
                self.reg(*vaddr);
                self.reg(*data);
                return Some(*vaddr);
            }
            IntOp::NodeId { dst } => self.dst(dst),
        }
        None
    }

    fn mem_op(&mut self, op: &MemOp) {
        match op {
            MemOp::Load { base, dst, .. } => {
                self.reg(*base);
                self.dst(dst);
                self.mem = peekable(*base).map_or(MemHazard::None, MemHazard::Access);
            }
            MemOp::Store { src, base, .. } => {
                self.src(src);
                self.reg(*base);
                self.mem = peekable(*base).map_or(MemHazard::None, MemHazard::Access);
            }
            MemOp::Send {
                dest,
                dip,
                len,
                priority,
            } => {
                self.reg(*dest);
                self.reg(*dip);
                for i in 1..=*len {
                    self.reg(Reg::Mc(i));
                }
                if *priority == Priority::P0 {
                    // "Threads attempting to execute a SEND instruction
                    // will stall" while the credit counter is zero (§4.1).
                    self.mem = MemHazard::SendCredit;
                }
            }
        }
    }

    fn fp_op(&mut self, op: &FpOp) {
        match op {
            FpOp::Alu { a, b, dst, .. } | FpOp::Cmp { a, b, dst, .. } => {
                self.src(a);
                self.src(b);
                self.dst(dst);
            }
            FpOp::Madd { a, b, c, dst } => {
                self.src(a);
                self.src(b);
                self.src(c);
                self.dst(dst);
            }
            FpOp::Mov { src, dst } | FpOp::Itof { src, dst } | FpOp::Ftoi { src, dst } => {
                self.src(src);
                self.dst(dst);
            }
            FpOp::Empty { .. } | FpOp::Nop => {}
        }
    }
}

/// An assembled program: a sequence of instructions plus the label table.
///
/// Programs are loaded into a cluster's instruction space; branch targets
/// and exported symbols are instruction indices within the program.
///
/// Immutable once built: every instruction carries a precomputed
/// [`IssueDesc`], so the fields are private and the only constructor
/// ([`Program::from_parts`]) derives the table from the instructions it
/// is given — the two cannot drift apart.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    instrs: Vec<Instruction>,
    /// `descs[i] == IssueDesc::of(&instrs[i])`.
    descs: Vec<IssueDesc>,
    symbols: BTreeMap<String, u32>,
}

impl Program {
    /// A program with no instructions.
    #[must_use]
    pub fn new() -> Program {
        Program::default()
    }

    /// Build a program from its instructions and label table (label name
    /// → instruction index), deriving each instruction's [`IssueDesc`].
    #[must_use]
    pub fn from_parts(instrs: Vec<Instruction>, symbols: BTreeMap<String, u32>) -> Program {
        let descs = instrs.iter().map(IssueDesc::of).collect();
        Program {
            instrs,
            descs,
            symbols,
        }
    }

    /// The instructions, in order.
    #[must_use]
    pub fn instrs(&self) -> &[Instruction] {
        &self.instrs
    }

    /// The issue descriptors, parallel to [`Program::instrs`].
    #[must_use]
    pub fn issue_descs(&self) -> &[IssueDesc] {
        &self.descs
    }

    /// Label name → instruction index.
    #[must_use]
    pub fn symbols(&self) -> &BTreeMap<String, u32> {
        &self.symbols
    }

    /// Instruction count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Is the program empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Look up a label's instruction index.
    #[must_use]
    pub fn entry(&self, label: &str) -> Option<u32> {
        self.symbols.get(label).copied()
    }
}

impl fmt::Display for Program {
    /// Renders assembly that re-assembles to an equal program (labels are
    /// emitted on their own lines before the instruction they name).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut by_index: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        for (name, &idx) in &self.symbols {
            by_index.entry(idx).or_default().push(name);
        }
        for (i, instr) in self.instrs.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            if let Some(labels) = by_index.get(&(i as u32)) {
                for l in labels {
                    writeln!(f, "{l}:")?;
                }
            }
            writeln!(f, "    {instr}")?;
        }
        #[allow(clippy::cast_possible_truncation)]
        if let Some(labels) = by_index.get(&(self.instrs.len() as u32)) {
            for l in labels {
                writeln!(f, "{l}:")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AluKind, IntOp};
    use crate::reg::{Dst, Reg, Src};

    fn add() -> IntOp {
        IntOp::Alu {
            kind: AluKind::Add,
            a: Src::Reg(Reg::Int(1)),
            b: Src::Imm(1),
            dst: Dst::Local(Reg::Int(1)),
        }
    }

    #[test]
    fn op_count() {
        let mut i = Instruction::empty();
        assert_eq!(i.op_count(), 0);
        i.int_op = Some(add());
        assert_eq!(i.op_count(), 1);
        i.fp_op = Some(FpOp::Nop);
        assert_eq!(i.op_count(), 2);
    }

    #[test]
    fn display_empty_instruction() {
        assert_eq!(Instruction::empty().to_string(), "nop");
    }

    #[test]
    fn display_joins_ops() {
        let i = Instruction {
            int_op: Some(add()),
            mem_op: None,
            fp_op: Some(FpOp::Nop),
        };
        assert_eq!(i.to_string(), "add r1, #1, r1 | fnop");
    }

    fn bits(regs: &[Reg]) -> u64 {
        regs.iter()
            .map(|r| 1u64 << r.scoreboard_bit().unwrap())
            .fold(0, |a, b| a | b)
    }

    fn desc_of(line: &str) -> IssueDesc {
        let p = crate::assemble(line).unwrap();
        assert_eq!(p.issue_descs().len(), 1, "{line}");
        p.issue_descs()[0]
    }

    #[test]
    fn descriptor_collects_sources_and_local_destinations() {
        let d = desc_of("add r1, #1, r2 | ld [r5+#2], f1 | fmul f2, f3, h1.f4\n");
        // The remote destination h1.f4 is not this thread's to wait on.
        assert_eq!(
            d.need,
            bits(&[
                Reg::Int(1),
                Reg::Int(2),
                Reg::Int(5),
                Reg::Fp(1),
                Reg::Fp(2),
                Reg::Fp(3)
            ])
        );
        assert_eq!(d.queue_words, [0, 0]);
        assert_eq!(d.mem, MemHazard::Access(Reg::Int(5)));
        assert_eq!(d.int_restart, None);
        assert!(!d.regs_only);
    }

    #[test]
    fn descriptor_counts_queue_words_per_queue() {
        let d = desc_of("mov rnet, r1 | add evq, evq, r2 | fadd f1, rnet, f1\n");
        assert_eq!(d.queue_words, [2, 2]);
        assert_eq!(d.need, bits(&[Reg::Int(1), Reg::Int(2), Reg::Fp(1)]));
        assert_eq!(d.mem, MemHazard::None);
        // An integer op on the memory unit still disables the memo.
        assert!(!d.regs_only);
        assert!(desc_of("mov rnet, r1\n").regs_only);
    }

    #[test]
    fn descriptor_send_needs_body_registers_and_a_p0_credit() {
        let d = desc_of("send r2, r3, #2\n");
        assert_eq!(
            d.need,
            bits(&[Reg::Int(2), Reg::Int(3), Reg::Mc(1), Reg::Mc(2)])
        );
        assert_eq!(d.mem, MemHazard::SendCredit);
        assert_eq!(desc_of("send.p1 r2, r3, #0\n").mem, MemHazard::None);
    }

    #[test]
    fn descriptor_keeps_mrestart_apart_from_the_memory_slot() {
        // `mrestart` in the integer slot beside a store…
        let d = desc_of("mrestart r1, r2, r3 | st r4, [r5]\n");
        assert_eq!(d.int_restart, Some(Reg::Int(2)));
        assert_eq!(d.mem, MemHazard::Access(Reg::Int(5)));
        assert!(!d.regs_only);
        // …alone…
        let d = desc_of("mrestart r1, r2, r3\n");
        assert_eq!(d.int_restart, Some(Reg::Int(2)));
        assert_eq!(d.mem, MemHazard::None);
        assert!(!d.regs_only);
        // …and placed on the memory unit's ALU behind another int op.
        let d = desc_of("nop | mrestart r1, r2, r3\n");
        assert_eq!(d.int_restart, None);
        assert_eq!(d.mem, MemHazard::Restart(Reg::Int(2)));
    }

    #[test]
    fn descriptor_never_peeks_a_queue_register() {
        // Reading a queue head dequeues it, so a queue-register address
        // is counted as an operand but carries no structural check.
        let d = desc_of("ld [rnet], r1\n");
        assert_eq!(d.queue_words, [1, 0]);
        assert_eq!(d.mem, MemHazard::None);
        let d = desc_of("mrestart r1, evq, r3\n");
        assert_eq!(d.queue_words, [0, 1]);
        assert_eq!(d.int_restart, None);
        assert!(!d.regs_only);
    }

    #[test]
    fn descriptors_stay_parallel_to_instructions() {
        let p = crate::assemble("add r1, #1, r1\n ld [r2], r3\n brt gcc1, @0\n halt\n").unwrap();
        assert_eq!(p.issue_descs().len(), p.len());
        for (instr, desc) in p.instrs().iter().zip(p.issue_descs()) {
            assert_eq!(*desc, IssueDesc::of(instr));
        }
        assert!(Program::new().issue_descs().is_empty());
    }

    #[test]
    fn program_symbols() {
        let symbols = BTreeMap::from([("start".to_owned(), 0), ("end".to_owned(), 1)]);
        let p = Program::from_parts(vec![Instruction::empty()], symbols);
        assert_eq!(p.entry("start"), Some(0));
        assert_eq!(p.entry("end"), Some(1));
        assert_eq!(p.entry("nope"), None);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        let text = p.to_string();
        assert!(text.contains("start:"));
        assert!(text.contains("end:"));
    }
}
