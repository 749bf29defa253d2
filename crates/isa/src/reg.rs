//! Register names and operand types of the MAP ISA.
//!
//! Each cluster holds, per resident thread slot: an integer register file,
//! a floating-point register file (§2, Fig. 3), eight message-composition
//! registers used by `SEND` (§4.1), and local copies of the eight global
//! condition-code registers (§3.1). The register-mapped network-input and
//! event-queue heads (§3.3, §4.1) appear as the pseudo-registers
//! [`Reg::NetIn`] and [`Reg::EvQ`].

use mm_faults::{Ckpt, CkptError, Dec, Enc};
use std::fmt;

/// Integer registers per H-Thread slot (`r0` is hardwired to zero).
pub const NUM_INT_REGS: u8 = 16;
/// Floating-point registers per H-Thread slot.
pub const NUM_FP_REGS: u8 = 16;
/// Global condition-code registers (four pairs; pair *k* is writable only
/// by cluster *k*, every cluster holds a local copy of all eight).
pub const NUM_GCC_REGS: u8 = 8;
/// Message-composition registers per H-Thread slot. A `SEND` of body
/// length *n* transmits `mc1..=mc{n}` (matching the paper's Fig. 7, which
/// loads the body into `MC1` and sends length 1).
pub const NUM_MC_REGS: u8 = 8;
/// Clusters on a MAP chip, hence H-Threads per V-Thread.
pub const NUM_CLUSTERS: u8 = 4;

/// A register name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reg {
    /// Integer register `r<n>`; `r0` reads as zero and ignores writes.
    Int(u8),
    /// Floating-point register `f<n>`.
    Fp(u8),
    /// Global condition-code register `gcc<n>` (single bit, replicated on
    /// every cluster; writes broadcast over the C-Switch).
    Gcc(u8),
    /// Message-composition register `mc<n>`.
    Mc(u8),
    /// The register-mapped head of the incoming message queue (`rnet`).
    /// Reads dequeue one word and stall while the queue is empty.
    NetIn,
    /// The register-mapped head of this H-Thread's event queue (`evq`).
    /// Reads dequeue one word and stall while the queue is empty.
    EvQ,
}

impl Reg {
    /// Validate the index range for indexed register kinds.
    #[must_use]
    pub fn is_valid(self) -> bool {
        match self {
            Reg::Int(n) => n < NUM_INT_REGS,
            Reg::Fp(n) => n < NUM_FP_REGS,
            Reg::Gcc(n) => n < NUM_GCC_REGS,
            Reg::Mc(n) => n < NUM_MC_REGS,
            Reg::NetIn | Reg::EvQ => true,
        }
    }

    /// Is this one of the queue-backed pseudo-registers?
    #[must_use]
    pub fn is_queue(self) -> bool {
        matches!(self, Reg::NetIn | Reg::EvQ)
    }

    /// This register's bit index in the packed per-thread scoreboard
    /// word, or `None` for the queue registers (their "scoreboard" is the
    /// queue occupancy, owned by the node). The one definition of the
    /// layout: the register file's full/empty word and every
    /// [`IssueDesc::need`](crate::instr::IssueDesc::need) mask use it.
    #[must_use]
    pub fn scoreboard_bit(self) -> Option<u32> {
        match self {
            Reg::Int(n) => Some(SB_INT_BASE + u32::from(n)),
            Reg::Fp(n) => Some(SB_FP_BASE + u32::from(n)),
            Reg::Mc(n) => Some(SB_MC_BASE + u32::from(n)),
            Reg::Gcc(n) => Some(SB_GCC_BASE + u32::from(n)),
            Reg::NetIn | Reg::EvQ => None,
        }
    }
}

/// Bit offsets of each register class inside the packed scoreboard word.
const SB_INT_BASE: u32 = 0;
const SB_FP_BASE: u32 = SB_INT_BASE + NUM_INT_REGS as u32;
const SB_MC_BASE: u32 = SB_FP_BASE + NUM_FP_REGS as u32;
const SB_GCC_BASE: u32 = SB_MC_BASE + NUM_MC_REGS as u32;
/// The scoreboard word with every register's bit set (all full).
pub const SCOREBOARD_ALL_FULL: u64 = (1u64 << (SB_GCC_BASE + NUM_GCC_REGS as u32)) - 1;

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::Int(n) => write!(f, "r{n}"),
            Reg::Fp(n) => write!(f, "f{n}"),
            Reg::Gcc(n) => write!(f, "gcc{n}"),
            Reg::Mc(n) => write!(f, "mc{n}"),
            Reg::NetIn => f.write_str("rnet"),
            Reg::EvQ => f.write_str("evq"),
        }
    }
}

/// A source operand: a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// Read a register (stalls until its scoreboard bit is full).
    Reg(Reg),
    /// A literal value.
    Imm(i64),
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::Reg(r) => write!(f, "{r}"),
            Src::Imm(v) => write!(f, "#{v}"),
        }
    }
}

impl From<Reg> for Src {
    fn from(r: Reg) -> Src {
        Src::Reg(r)
    }
}

impl From<i64> for Src {
    fn from(v: i64) -> Src {
        Src::Imm(v)
    }
}

/// A destination operand.
///
/// An H-Thread "reads operands from its own register file, but can directly
/// write to the register file of any H-Thread in its own V-Thread" (§3.1);
/// remote writes travel over the C-Switch and set the target's scoreboard
/// bit full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dst {
    /// A register in this H-Thread's own files.
    Local(Reg),
    /// A register of the H-Thread on `cluster` within the same V-Thread
    /// (written `h<cluster>.<reg>` in assembly).
    Remote {
        /// Target cluster index (0..4).
        cluster: u8,
        /// Target register.
        reg: Reg,
    },
}

impl Dst {
    /// The register being written, wherever it lives.
    #[must_use]
    pub fn reg(self) -> Reg {
        match self {
            Dst::Local(r) | Dst::Remote { reg: r, .. } => r,
        }
    }

    /// Does the write leave the issuing cluster (requiring a C-Switch slot)?
    #[must_use]
    pub fn is_remote(self) -> bool {
        matches!(self, Dst::Remote { .. })
    }
}

impl fmt::Display for Dst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dst::Local(r) => write!(f, "{r}"),
            Dst::Remote { cluster, reg } => write!(f, "h{cluster}.{reg}"),
        }
    }
}

impl From<Reg> for Dst {
    fn from(r: Reg) -> Dst {
        Dst::Local(r)
    }
}

/// Encoding of a *register address* for memory-mapped register writes.
///
/// The paper's remote-read reply handler "decodes the original load
/// destination register and writes the data directly there" (§4.2) — the
/// M-Machine provides memory-mapped addressing of thread registers. We pack
/// the (V-Thread slot, cluster, register) triple into a word so it can ride
/// inside messages and be consumed by the privileged `wrreg` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegAddr {
    /// V-Thread slot (0..6).
    pub slot: u8,
    /// Cluster (0..4).
    pub cluster: u8,
    /// Target register.
    pub reg: Reg,
}

impl RegAddr {
    /// Pack into a word's data bits.
    #[must_use]
    pub fn encode(self) -> u64 {
        let (kind, idx): (u64, u64) = match self.reg {
            Reg::Int(n) => (0, u64::from(n)),
            Reg::Fp(n) => (1, u64::from(n)),
            Reg::Gcc(n) => (2, u64::from(n)),
            Reg::Mc(n) => (3, u64::from(n)),
            Reg::NetIn => (4, 0),
            Reg::EvQ => (5, 0),
        };
        (u64::from(self.slot) << 16) | (u64::from(self.cluster) << 12) | (kind << 8) | idx
    }

    /// Unpack from a word's data bits. Returns `None` for malformed encodings.
    #[must_use]
    pub fn decode(bits: u64) -> Option<RegAddr> {
        let idx = (bits & 0xFF) as u8;
        let kind = (bits >> 8) & 0xF;
        let cluster = ((bits >> 12) & 0xF) as u8;
        let slot = ((bits >> 16) & 0xF) as u8;
        let reg = match kind {
            0 => Reg::Int(idx),
            1 => Reg::Fp(idx),
            2 => Reg::Gcc(idx),
            3 => Reg::Mc(idx),
            4 => Reg::NetIn,
            5 => Reg::EvQ,
            _ => return None,
        };
        if !reg.is_valid() || cluster >= NUM_CLUSTERS || slot >= 6 {
            return None;
        }
        Some(RegAddr { slot, cluster, reg })
    }
}

/// Checkpoint format: the packed word of [`RegAddr::encode`].
impl Ckpt for RegAddr {
    fn save(&self, e: &mut Enc) {
        e.u64(self.encode());
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let bits = d.u64()?;
        RegAddr::decode(bits).ok_or_else(|| CkptError(format!("bad register address {bits:#x}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_ranges() {
        assert!(Reg::Int(15).is_valid());
        assert!(!Reg::Int(16).is_valid());
        assert!(Reg::Fp(15).is_valid());
        assert!(!Reg::Fp(16).is_valid());
        assert!(Reg::Gcc(7).is_valid());
        assert!(!Reg::Gcc(8).is_valid());
        assert!(Reg::Mc(7).is_valid());
        assert!(!Reg::Mc(8).is_valid());
        assert!(Reg::NetIn.is_valid());
    }

    #[test]
    fn scoreboard_bits_are_distinct_and_dense() {
        let regs = (0..NUM_INT_REGS)
            .map(Reg::Int)
            .chain((0..NUM_FP_REGS).map(Reg::Fp))
            .chain((0..NUM_MC_REGS).map(Reg::Mc))
            .chain((0..NUM_GCC_REGS).map(Reg::Gcc));
        let mut seen = 0u64;
        for r in regs {
            let bit = 1u64 << r.scoreboard_bit().unwrap();
            assert_eq!(seen & bit, 0, "{r} shares a scoreboard bit");
            seen |= bit;
        }
        assert_eq!(seen, SCOREBOARD_ALL_FULL);
        assert_eq!(Reg::NetIn.scoreboard_bit(), None);
        assert_eq!(Reg::EvQ.scoreboard_bit(), None);
    }

    #[test]
    fn queue_registers() {
        assert!(Reg::NetIn.is_queue());
        assert!(Reg::EvQ.is_queue());
        assert!(!Reg::Int(3).is_queue());
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::Int(3).to_string(), "r3");
        assert_eq!(Reg::Fp(0).to_string(), "f0");
        assert_eq!(Reg::Gcc(1).to_string(), "gcc1");
        assert_eq!(Reg::Mc(7).to_string(), "mc7");
        assert_eq!(Reg::NetIn.to_string(), "rnet");
        assert_eq!(Reg::EvQ.to_string(), "evq");
        assert_eq!(Src::Imm(-4).to_string(), "#-4");
        assert_eq!(
            Dst::Remote {
                cluster: 1,
                reg: Reg::Int(2)
            }
            .to_string(),
            "h1.r2"
        );
    }

    #[test]
    fn dst_accessors() {
        let d = Dst::Remote {
            cluster: 2,
            reg: Reg::Fp(4),
        };
        assert!(d.is_remote());
        assert_eq!(d.reg(), Reg::Fp(4));
        assert!(!Dst::Local(Reg::Int(1)).is_remote());
    }

    #[test]
    fn reg_addr_round_trip() {
        for slot in 0..6 {
            for cluster in 0..NUM_CLUSTERS {
                for reg in [Reg::Int(5), Reg::Fp(15), Reg::Gcc(7), Reg::Mc(0)] {
                    let a = RegAddr { slot, cluster, reg };
                    assert_eq!(RegAddr::decode(a.encode()), Some(a));
                }
            }
        }
    }

    #[test]
    fn reg_addr_rejects_garbage() {
        assert_eq!(RegAddr::decode(u64::MAX), None);
        // slot 7 is out of range
        let bad = (7u64 << 16) | 1; // cluster/reg fields zero
        assert_eq!(RegAddr::decode(bad), None);
    }
}
