//! Operation definitions for the three execution units of a MAP cluster.
//!
//! A cluster is a 64-bit, three-issue processor: two integer ALUs — one of
//! which, the *memory unit*, interfaces to the memory system — and one
//! floating-point ALU (§2, Fig. 3). Each MAP instruction carries up to one
//! operation per unit; they issue together and may complete out of order.

use crate::reg::{Dst, Reg, Src};
use mm_faults::ckpt_enum;
use std::fmt;

/// Two-input integer ALU functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluKind {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (division by zero raises an arithmetic exception).
    Div,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sra,
}

impl AluKind {
    /// The assembly mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluKind::Add => "add",
            AluKind::Sub => "sub",
            AluKind::Mul => "mul",
            AluKind::Div => "div",
            AluKind::And => "and",
            AluKind::Or => "or",
            AluKind::Xor => "xor",
            AluKind::Shl => "shl",
            AluKind::Shr => "shr",
            AluKind::Sra => "sra",
        }
    }
}

/// Integer comparison functions (results are 0/1, often targeted at a
/// global CC register to broadcast a branch condition, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpKind {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpKind {
    /// The assembly mnemonic (integer form).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpKind::Eq => "eq",
            CmpKind::Ne => "ne",
            CmpKind::Lt => "lt",
            CmpKind::Le => "le",
            CmpKind::Gt => "gt",
            CmpKind::Ge => "ge",
        }
    }
}

/// Branch conditions. Conditions are usually global CC registers so that
/// all four H-Threads of a V-Thread can branch on one comparison (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Unconditional.
    Always,
    /// Taken when the register is non-zero (register must be full to issue).
    IfTrue(Reg),
    /// Taken when the register is zero.
    IfFalse(Reg),
}

/// Operations executable on an integer ALU (including the memory unit,
/// which is itself an integer ALU).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IntOp {
    /// `d = kind(a, b)`.
    Alu {
        /// ALU function.
        kind: AluKind,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Destination.
        dst: Dst,
    },
    /// `d = kind(a, b) ? 1 : 0`.
    Cmp {
        /// Comparison function.
        kind: CmpKind,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Destination (may be a global CC register).
        dst: Dst,
    },
    /// Copy `src` to `dst` (pointer tags are preserved).
    Mov {
        /// Source.
        src: Src,
        /// Destination.
        dst: Dst,
    },
    /// Guarded-pointer arithmetic with the hardware bounds check:
    /// `d = base + offset` (faults if the result leaves the segment).
    Lea {
        /// Pointer operand (must be tagged).
        base: Reg,
        /// Word offset.
        offset: Src,
        /// Destination.
        dst: Dst,
    },
    /// Privileged pointer forgery: `d = pointer(perm, log2_len, addr)`.
    SetPtr {
        /// Permission field value.
        perm: Src,
        /// Log₂ segment length.
        log2_len: Src,
        /// Word address.
        addr: Src,
        /// Destination.
        dst: Dst,
    },
    /// Control transfer to an instruction index within this H-Thread's code
    /// space. Taken branches cost a fetch bubble (see `mm-sim` config).
    Branch {
        /// Condition.
        cond: BranchCond,
        /// Absolute instruction index (resolved from a label by the assembler).
        target: u32,
    },
    /// Indirect jump through a register holding an executable pointer —
    /// `JMP Rnet` dispatches an arriving message through its DIP (Fig. 7).
    JmpReg {
        /// Register holding the target (checked for execute permission).
        target: Reg,
    },
    /// Mark registers empty to prepare for inter-cluster transfers (§3.1).
    Empty {
        /// Registers whose scoreboard bits are cleared.
        regs: Vec<Reg>,
    },
    /// Privileged: write `value` into the thread register named by the
    /// [`crate::reg::RegAddr`] encoding in `addr`, setting it full (§4.2).
    WrReg {
        /// Encoded register address.
        addr: Src,
        /// Value to deposit.
        value: Src,
    },
    /// Privileged: probe the GTLB for the home node of virtual address `va`;
    /// writes the node id, or an error value if unmapped (§4.2).
    GProbe {
        /// Virtual address to translate.
        va: Src,
        /// Destination for the node id.
        dst: Dst,
    },
    /// Privileged: install the 4-word LPT entry at `entry_ptr` (local
    /// physical memory) into the LTLB.
    TlbWr {
        /// Pointer to the in-memory LPT entry.
        entry_ptr: Reg,
    },
    /// Privileged: replay a faulted memory operation from an event record
    /// (descriptor word, faulting virtual address, store data), completing
    /// it as §3.3's "restarts the memory reference".
    MRestart {
        /// Event descriptor word.
        desc: Reg,
        /// Faulting virtual address.
        vaddr: Reg,
        /// Store data (ignored for loads).
        data: Reg,
    },
    /// Read this node's id (set at boot) into `dst`.
    NodeId {
        /// Destination.
        dst: Dst,
    },
    /// Stop this H-Thread.
    Halt,
    /// Do nothing.
    Nop,
}

/// Pre-condition on the synchronization bit of the addressed memory word
/// (§2: "Special load and store operations may specify a precondition and
/// a postcondition on the synchronization bit"). A violated precondition
/// raises a *memory synchronizing fault* event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncPre {
    /// Don't examine the bit.
    #[default]
    Any,
    /// Word must be full.
    Full,
    /// Word must be empty.
    Empty,
}

/// Post-condition applied to the synchronization bit after the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncPost {
    /// Leave the bit unchanged.
    #[default]
    Unchanged,
    /// Set the bit full.
    SetFull,
    /// Set the bit empty.
    SetEmpty,
}

ckpt_enum!(SyncPre, "sync precondition" { 0 => Any, 1 => Full, 2 => Empty });
ckpt_enum!(SyncPost, "sync postcondition" { 0 => Unchanged, 1 => SetFull, 2 => SetEmpty });

/// Message priority (§4.1): user messages at priority 0, system replies at
/// priority 1 so replies can always drain (deadlock avoidance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum Priority {
    /// Request / user priority.
    #[default]
    P0,
    /// Reply / system priority.
    P1,
}

impl Priority {
    /// Numeric index (0 or 1).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Priority::P0 => 0,
            Priority::P1 => 1,
        }
    }
}

ckpt_enum!(Priority, "priority" { 0 => P0, 1 => P1 });

/// Operations specific to the memory unit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Load the word at `base + offset` into `dst`. The destination's
    /// scoreboard bit is cleared at issue and set when the data returns, so
    /// consumers stall only when they actually need the value.
    Load {
        /// Base address register (a guarded pointer with read permission).
        base: Reg,
        /// Word offset.
        offset: i32,
        /// Destination register.
        dst: Dst,
        /// Synchronization-bit precondition.
        pre: SyncPre,
        /// Synchronization-bit postcondition.
        post: SyncPost,
    },
    /// Store `src` to `base + offset`.
    Store {
        /// Value to store.
        src: Src,
        /// Base address register (a guarded pointer with write permission).
        base: Reg,
        /// Word offset.
        offset: i32,
        /// Synchronization-bit precondition.
        pre: SyncPre,
        /// Synchronization-bit postcondition.
        post: SyncPost,
    },
    /// Atomically launch a message (§4.1): destination virtual address in
    /// `dest`, dispatch instruction pointer in `dip` (an Enter-permission
    /// pointer — checked *before* sending), body `mc1..=mc{len}`. Stalls
    /// while the node's send-credit counter is zero (throttling).
    Send {
        /// Destination virtual address register.
        dest: Reg,
        /// Dispatch instruction pointer register.
        dip: Reg,
        /// Body length in words (`0..=7`).
        len: u8,
        /// Network priority.
        priority: Priority,
    },
}

/// What the memory-unit slot of an instruction holds: a memory operation,
/// or any integer operation (the memory unit is an integer ALU, §2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MemSlotOp {
    /// A memory-system operation.
    Mem(MemOp),
    /// An ordinary integer operation executed on the memory unit's ALU.
    Int(IntOp),
}

/// Two-input floating-point ALU functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (longer, unpipelined latency).
    Div,
}

impl FpKind {
    /// The assembly mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpKind::Add => "fadd",
            FpKind::Sub => "fsub",
            FpKind::Mul => "fmul",
            FpKind::Div => "fdiv",
        }
    }
}

/// Operations executable on the floating-point unit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// `d = kind(a, b)` on IEEE doubles.
    Alu {
        /// ALU function.
        kind: FpKind,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Destination.
        dst: Dst,
    },
    /// Fused multiply-add: `d = a*b + c`.
    Madd {
        /// Multiplicand.
        a: Src,
        /// Multiplier.
        b: Src,
        /// Addend.
        c: Src,
        /// Destination.
        dst: Dst,
    },
    /// Floating-point comparison, result 0/1 (may target a global CC).
    Cmp {
        /// Comparison function.
        kind: CmpKind,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Destination.
        dst: Dst,
    },
    /// Copy (bit pattern) between registers.
    Mov {
        /// Source.
        src: Src,
        /// Destination.
        dst: Dst,
    },
    /// Convert a signed integer to double.
    Itof {
        /// Source.
        src: Src,
        /// Destination.
        dst: Dst,
    },
    /// Convert a double to a signed integer (truncating).
    Ftoi {
        /// Source.
        src: Src,
        /// Destination.
        dst: Dst,
    },
    /// Mark registers empty (the FP unit may also execute this, Fig. 5b).
    Empty {
        /// Registers whose scoreboard bits are cleared.
        regs: Vec<Reg>,
    },
    /// Do nothing.
    Nop,
}

fn fmt_sync(pre: SyncPre, post: SyncPost, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if pre == SyncPre::Any && post == SyncPost::Unchanged {
        return Ok(());
    }
    let p = match pre {
        SyncPre::Any => 'a',
        SyncPre::Full => 'f',
        SyncPre::Empty => 'e',
    };
    let q = match post {
        SyncPost::Unchanged => 'u',
        SyncPost::SetFull => 'f',
        SyncPost::SetEmpty => 'e',
    };
    write!(f, ".{p}{q}")
}

impl fmt::Display for IntOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntOp::Alu { kind, a, b, dst } => write!(f, "{} {a}, {b}, {dst}", kind.mnemonic()),
            IntOp::Cmp { kind, a, b, dst } => write!(f, "{} {a}, {b}, {dst}", kind.mnemonic()),
            IntOp::Mov { src, dst } => write!(f, "mov {src}, {dst}"),
            IntOp::Lea { base, offset, dst } => write!(f, "lea {base}, {offset}, {dst}"),
            IntOp::SetPtr {
                perm,
                log2_len,
                addr,
                dst,
            } => write!(f, "setptr {perm}, {log2_len}, {addr}, {dst}"),
            IntOp::Branch { cond, target } => match cond {
                BranchCond::Always => write!(f, "br @{target}"),
                BranchCond::IfTrue(r) => write!(f, "brt {r}, @{target}"),
                BranchCond::IfFalse(r) => write!(f, "brf {r}, @{target}"),
            },
            IntOp::JmpReg { target } => write!(f, "jmp {target}"),
            IntOp::Empty { regs } => {
                f.write_str("empty ")?;
                for (i, r) in regs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{r}")?;
                }
                Ok(())
            }
            IntOp::WrReg { addr, value } => write!(f, "wrreg {addr}, {value}"),
            IntOp::GProbe { va, dst } => write!(f, "gprobe {va}, {dst}"),
            IntOp::TlbWr { entry_ptr } => write!(f, "tlbwr {entry_ptr}"),
            IntOp::MRestart { desc, vaddr, data } => {
                write!(f, "mrestart {desc}, {vaddr}, {data}")
            }
            IntOp::NodeId { dst } => write!(f, "nodeid {dst}"),
            IntOp::Halt => f.write_str("halt"),
            IntOp::Nop => f.write_str("nop"),
        }
    }
}

impl fmt::Display for MemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemOp::Load {
                base,
                offset,
                dst,
                pre,
                post,
            } => {
                f.write_str("ld")?;
                fmt_sync(*pre, *post, f)?;
                if *offset == 0 {
                    write!(f, " [{base}], {dst}")
                } else {
                    write!(f, " [{base}+#{offset}], {dst}")
                }
            }
            MemOp::Store {
                src,
                base,
                offset,
                pre,
                post,
            } => {
                f.write_str("st")?;
                fmt_sync(*pre, *post, f)?;
                if *offset == 0 {
                    write!(f, " {src}, [{base}]")
                } else {
                    write!(f, " {src}, [{base}+#{offset}]")
                }
            }
            MemOp::Send {
                dest,
                dip,
                len,
                priority,
            } => {
                f.write_str("send")?;
                if *priority == Priority::P1 {
                    f.write_str(".p1")?;
                }
                write!(f, " {dest}, {dip}, #{len}")
            }
        }
    }
}

impl fmt::Display for MemSlotOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemSlotOp::Mem(m) => write!(f, "{m}"),
            MemSlotOp::Int(i) => write!(f, "{i}"),
        }
    }
}

impl fmt::Display for FpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FpOp::Alu { kind, a, b, dst } => write!(f, "{} {a}, {b}, {dst}", kind.mnemonic()),
            FpOp::Madd { a, b, c, dst } => write!(f, "fmadd {a}, {b}, {c}, {dst}"),
            FpOp::Cmp { kind, a, b, dst } => write!(f, "f{} {a}, {b}, {dst}", kind.mnemonic()),
            FpOp::Mov { src, dst } => write!(f, "fmov {src}, {dst}"),
            FpOp::Itof { src, dst } => write!(f, "itof {src}, {dst}"),
            FpOp::Ftoi { src, dst } => write!(f, "ftoi {src}, {dst}"),
            FpOp::Empty { regs } => {
                f.write_str("empty ")?;
                for (i, r) in regs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{r}")?;
                }
                Ok(())
            }
            FpOp::Nop => f.write_str("fnop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_int_ops() {
        let op = IntOp::Alu {
            kind: AluKind::Add,
            a: Src::Reg(Reg::Int(1)),
            b: Src::Imm(3),
            dst: Dst::Local(Reg::Int(2)),
        };
        assert_eq!(op.to_string(), "add r1, #3, r2");

        let br = IntOp::Branch {
            cond: BranchCond::IfFalse(Reg::Gcc(1)),
            target: 7,
        };
        assert_eq!(br.to_string(), "brf gcc1, @7");
    }

    #[test]
    fn display_mem_ops() {
        let ld = MemOp::Load {
            base: Reg::Int(5),
            offset: 2,
            dst: Dst::Local(Reg::Fp(1)),
            pre: SyncPre::Any,
            post: SyncPost::Unchanged,
        };
        assert_eq!(ld.to_string(), "ld [r5+#2], f1");

        let st = MemOp::Store {
            src: Src::Reg(Reg::NetIn),
            base: Reg::Int(1),
            offset: 0,
            pre: SyncPre::Empty,
            post: SyncPost::SetFull,
        };
        assert_eq!(st.to_string(), "st.ef rnet, [r1]");

        let send = MemOp::Send {
            dest: Reg::Int(2),
            dip: Reg::Int(3),
            len: 1,
            priority: Priority::P1,
        };
        assert_eq!(send.to_string(), "send.p1 r2, r3, #1");
    }

    #[test]
    fn display_fp_ops() {
        let op = FpOp::Alu {
            kind: FpKind::Mul,
            a: Src::Reg(Reg::Fp(2)),
            b: Src::Reg(Reg::Fp(3)),
            dst: Dst::Remote {
                cluster: 1,
                reg: Reg::Fp(4),
            },
        };
        assert_eq!(op.to_string(), "fmul f2, f3, h1.f4");
        let e = FpOp::Empty {
            regs: vec![Reg::Fp(1), Reg::Gcc(3)],
        };
        assert_eq!(e.to_string(), "empty f1, gcc3");
    }

    #[test]
    fn priority_index() {
        assert_eq!(Priority::P0.index(), 0);
        assert_eq!(Priority::P1.index(), 1);
        assert!(Priority::P0 < Priority::P1);
    }

    #[test]
    fn sync_defaults_not_printed() {
        let ld = MemOp::Load {
            base: Reg::Int(1),
            offset: 0,
            dst: Dst::Local(Reg::Int(2)),
            pre: SyncPre::default(),
            post: SyncPost::default(),
        };
        assert!(!ld.to_string().contains('.'));
    }
}
