//! Scoreboarded register files.
//!
//! Each cluster holds, per resident V-Thread slot, an integer file, an FP
//! file, the message-composition registers, and local copies of the eight
//! global CC registers. "A scoreboard bit associated with the destination
//! register is cleared (empty) when a multicycle operation, such as a
//! load, issues and set (full) when the result is available. An operation
//! that uses the result will not be selected for issue until the
//! corresponding scoreboard bit is set" (§3.1).
//!
//! Layout matters here: the issue stage reads scoreboard bits on every
//! readiness probe of every cycle, so all 48 full/empty bits are packed
//! into a single `u64` word, and the values are bare `u64`s whose
//! pointer tags live in one more word beside it — a [`Word`] is a
//! padded 16 bytes, so storing tags apart makes the file 344 bytes, not
//! 664, and leaves a 24-byte header (scoreboard, mutation counter,
//! tags) that shares a cache line with the thread's control words.

use mm_faults::{CkptError, Dec, Enc};
use mm_isa::reg::{Reg, NUM_FP_REGS, NUM_INT_REGS, NUM_MC_REGS, SCOREBOARD_ALL_FULL};
use mm_isa::word::Word;

/// Where each class sits in [`ThreadRegs`]' `flags` word: a value's
/// pointer tag at its scoreboard bit (int from 0, fp, then mc), and the
/// eight global CC values above the 40 tags.
const FP_FLAGS: u32 = NUM_INT_REGS as u32;
const MC_FLAGS: u32 = FP_FLAGS + NUM_FP_REGS as u32;
const GCC_VALUE_SHIFT: u32 = MC_FLAGS + NUM_MC_REGS as u32;

/// One H-Thread's registers on one cluster, with full/empty bits.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct ThreadRegs {
    /// Packed full/empty bits for every register (int, fp, mc, gcc),
    /// laid out by [`Reg::scoreboard_bit`].
    full: u64,
    /// Mutation counter: bumped by every effective `write`/`clear`.
    /// The issue stage memoizes "this thread's instruction is blocked
    /// on register fullness" and skips re-probing while this counter —
    /// which every path that can change fullness must pass through —
    /// is unchanged. 64-bit so it cannot wrap within any feasible run.
    version: u64,
    /// The pointer tag of every int, fp and mc value at its
    /// [`Reg::scoreboard_bit`], and the boolean values of the eight
    /// global CC registers from bit [`GCC_VALUE_SHIFT`] up.
    flags: u64,
    int: [u64; NUM_INT_REGS as usize],
    mc: [u64; NUM_MC_REGS as usize],
    fp: [u64; NUM_FP_REGS as usize],
}

// The file stays 344 bytes: three header words and 40 bare values.
const _: () = assert!(std::mem::size_of::<ThreadRegs>() <= 344);

impl Default for ThreadRegs {
    fn default() -> ThreadRegs {
        ThreadRegs::new()
    }
}

impl ThreadRegs {
    /// Fresh registers: all zero and all full (so code may read any
    /// register before writing it).
    #[must_use]
    pub fn new() -> ThreadRegs {
        ThreadRegs {
            full: SCOREBOARD_ALL_FULL,
            version: 0,
            flags: 0,
            int: [0; NUM_INT_REGS as usize],
            mc: [0; NUM_MC_REGS as usize],
            fp: [0; NUM_FP_REGS as usize],
        }
    }

    /// Is the register's scoreboard bit full? Queue-backed registers are
    /// not handled here (the node consults the queues).
    ///
    /// # Panics
    ///
    /// Panics on queue registers or out-of-range indices.
    #[must_use]
    pub fn is_full(&self, reg: Reg) -> bool {
        let bit = reg
            .scoreboard_bit()
            .expect("queue registers are owned by the node");
        self.full & (1u64 << bit) != 0
    }

    /// The packed full/empty word, one bit per register at
    /// [`Reg::scoreboard_bit`] — the issue stage tests an instruction's
    /// whole operand set against it with one AND.
    #[must_use]
    pub fn scoreboard(&self) -> u64 {
        self.full
    }

    /// Is flag bit `bit` set — the pointer tag of the value at that
    /// scoreboard bit, or a CC value above [`GCC_VALUE_SHIFT`]?
    fn flag(&self, bit: u32) -> bool {
        self.flags & (1u64 << bit) != 0
    }

    /// Read a register's value (caller must have checked fullness).
    ///
    /// # Panics
    ///
    /// Panics on queue registers.
    #[must_use]
    pub fn read(&self, reg: Reg) -> Word {
        match reg {
            Reg::Int(0) => Word::ZERO, // r0 is hardwired zero
            Reg::Int(n) => Word::from_raw(self.int[n as usize], self.flag(u32::from(n))),
            Reg::Fp(n) => Word::from_raw(self.fp[n as usize], self.flag(FP_FLAGS + u32::from(n))),
            Reg::Mc(n) => Word::from_raw(self.mc[n as usize], self.flag(MC_FLAGS + u32::from(n))),
            Reg::Gcc(n) => Word::from_bool(self.flag(GCC_VALUE_SHIFT + u32::from(n))),
            Reg::NetIn | Reg::EvQ => panic!("queue registers are owned by the node"),
        }
    }

    /// Write a register and set it full. Writes to `r0` are discarded.
    pub fn write(&mut self, reg: Reg, value: Word) {
        let (flag, set) = match reg {
            Reg::Int(0) | Reg::NetIn | Reg::EvQ => return,
            Reg::Int(n) => {
                self.int[n as usize] = value.bits();
                (u32::from(n), value.is_pointer())
            }
            Reg::Fp(n) => {
                self.fp[n as usize] = value.bits();
                (FP_FLAGS + u32::from(n), value.is_pointer())
            }
            Reg::Mc(n) => {
                self.mc[n as usize] = value.bits();
                (MC_FLAGS + u32::from(n), value.is_pointer())
            }
            Reg::Gcc(n) => (GCC_VALUE_SHIFT + u32::from(n), value.is_true()),
        };
        self.flags = self.flags & !(1u64 << flag) | u64::from(set) << flag;
        if let Some(bit) = reg.scoreboard_bit() {
            self.full |= 1u64 << bit;
        }
        self.version += 1;
    }

    /// The current mutation-counter value (see the field docs).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Clear a register's scoreboard bit (issue of a multicycle producer,
    /// or an explicit `empty` operation). `r0` stays full.
    pub fn clear(&mut self, reg: Reg) {
        if matches!(reg, Reg::Int(0) | Reg::NetIn | Reg::EvQ) {
            return;
        }
        if let Some(bit) = reg.scoreboard_bit() {
            self.full &= !(1u64 << bit);
        }
        self.version += 1;
    }

    /// The int, fp and mc values with their tag bits, in checkpoint
    /// order.
    fn values(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        let int = self.int.iter().zip(0..);
        let fp = self.fp.iter().zip(FP_FLAGS..);
        let mc = self.mc.iter().zip(MC_FLAGS..);
        int.chain(fp).chain(mc).map(|(&v, bit)| (v, bit))
    }

    /// Serialize the full register file, scoreboard and mutation counter
    /// included (the counter backs memoized issue-block proofs, so a
    /// restored run re-probes exactly when the original would have).
    /// Written by hand: each value is paired with its tag bit, which
    /// lives in a separate packed word.
    pub fn save_state(&self, e: &mut Enc) {
        e.u64(self.full);
        e.u64(self.version);
        #[allow(clippy::cast_possible_truncation)]
        e.u8((self.flags >> GCC_VALUE_SHIFT) as u8);
        for (v, bit) in self.values() {
            e.u64(v);
            e.bool(self.flag(bit));
        }
    }

    /// Restore state produced by [`ThreadRegs::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn load_state(&mut self, d: &mut Dec) -> Result<(), CkptError> {
        self.full = d.u64()?;
        self.version = d.u64()?;
        let mut flags = u64::from(d.u8()?) << GCC_VALUE_SHIFT;
        let slots = self.int.iter_mut().chain(&mut self.fp).chain(&mut self.mc);
        for (v, bit) in slots.zip(0..) {
            *v = d.u64()?;
            flags |= u64::from(d.bool()?) << bit;
        }
        self.flags = flags;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_registers_are_full_zero() {
        let r = ThreadRegs::new();
        assert!(r.is_full(Reg::Int(5)));
        assert!(r.is_full(Reg::Fp(15)));
        assert!(r.is_full(Reg::Gcc(7)));
        assert_eq!(r.read(Reg::Int(5)).bits(), 0);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut r = ThreadRegs::new();
        r.write(Reg::Int(0), Word::from_u64(99));
        assert_eq!(r.read(Reg::Int(0)).bits(), 0);
        r.clear(Reg::Int(0));
        assert!(r.is_full(Reg::Int(0)));
    }

    #[test]
    fn write_read_clear_cycle() {
        let mut r = ThreadRegs::new();
        r.clear(Reg::Int(3));
        assert!(!r.is_full(Reg::Int(3)));
        r.write(Reg::Int(3), Word::from_i64(-7));
        assert!(r.is_full(Reg::Int(3)));
        assert_eq!(r.read(Reg::Int(3)).as_i64(), -7);
    }

    #[test]
    fn gcc_is_single_bit() {
        let mut r = ThreadRegs::new();
        r.write(Reg::Gcc(1), Word::from_u64(0x100)); // non-zero → true
        assert_eq!(r.read(Reg::Gcc(1)).bits(), 1);
        r.write(Reg::Gcc(1), Word::ZERO);
        assert_eq!(r.read(Reg::Gcc(1)).bits(), 0);
    }

    #[test]
    fn classes_have_distinct_scoreboard_bits() {
        let mut r = ThreadRegs::new();
        r.clear(Reg::Int(3));
        assert!(r.is_full(Reg::Fp(3)), "fp(3) unaffected by int(3)");
        assert!(r.is_full(Reg::Mc(3)), "mc(3) unaffected by int(3)");
        assert!(r.is_full(Reg::Gcc(3)), "gcc(3) unaffected by int(3)");
        r.clear(Reg::Gcc(0));
        assert!(!r.is_full(Reg::Gcc(0)));
        assert!(r.is_full(Reg::Mc(0)));
        r.write(Reg::Gcc(0), Word::from_u64(1));
        assert!(r.is_full(Reg::Gcc(0)));
    }

    #[test]
    fn pointer_tags_preserved() {
        let mut r = ThreadRegs::new();
        let p = mm_isa::GuardedPointer::new(mm_isa::Perm::Read, 2, 8).unwrap();
        r.write(Reg::Int(4), Word::from_pointer(p));
        assert!(r.read(Reg::Int(4)).is_pointer());
    }
}
