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
//! into a single `u64` word (one cache-line touch per probe) and the
//! register values are inline arrays — the old eight-`Vec` layout cost
//! eight heap blocks and pointer chases per file, 192 per node.

use mm_faults::{CkptError, Dec, Enc};
use mm_isa::reg::{Reg, NUM_FP_REGS, NUM_INT_REGS, NUM_MC_REGS, SCOREBOARD_ALL_FULL};
use mm_isa::word::Word;

/// One H-Thread's registers on one cluster, with full/empty bits.
#[derive(Debug, Clone)]
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
    /// Packed boolean values of the eight global CC registers.
    gcc: u8,
    int: [Word; NUM_INT_REGS as usize],
    fp: [Word; NUM_FP_REGS as usize],
    mc: [Word; NUM_MC_REGS as usize],
}

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
            gcc: 0,
            int: [Word::ZERO; NUM_INT_REGS as usize],
            fp: [Word::ZERO; NUM_FP_REGS as usize],
            mc: [Word::ZERO; NUM_MC_REGS as usize],
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

    /// Read a register's value (caller must have checked fullness).
    ///
    /// # Panics
    ///
    /// Panics on queue registers.
    #[must_use]
    pub fn read(&self, reg: Reg) -> Word {
        match reg {
            Reg::Int(0) => Word::ZERO, // r0 is hardwired zero
            Reg::Int(n) => self.int[n as usize],
            Reg::Fp(n) => self.fp[n as usize],
            Reg::Mc(n) => self.mc[n as usize],
            Reg::Gcc(n) => Word::from_bool(self.gcc & (1 << n) != 0),
            Reg::NetIn | Reg::EvQ => panic!("queue registers are owned by the node"),
        }
    }

    /// Write a register and set it full. Writes to `r0` are discarded.
    pub fn write(&mut self, reg: Reg, value: Word) {
        match reg {
            Reg::Int(0) => return,
            Reg::Int(n) => self.int[n as usize] = value,
            Reg::Fp(n) => self.fp[n as usize] = value,
            Reg::Mc(n) => self.mc[n as usize] = value,
            Reg::Gcc(n) => {
                if value.is_true() {
                    self.gcc |= 1 << n;
                } else {
                    self.gcc &= !(1 << n);
                }
            }
            Reg::NetIn | Reg::EvQ => return,
        }
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

    /// Serialize the full register file, scoreboard and mutation counter
    /// included (the counter backs memoized issue-block proofs, so a
    /// restored run re-probes exactly when the original would have).
    pub fn save_state(&self, e: &mut Enc) {
        e.u64(self.full);
        e.u64(self.version);
        e.u8(self.gcc);
        for w in self.int.iter().chain(&self.fp).chain(&self.mc) {
            e.u64(w.bits());
            e.bool(w.is_pointer());
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
        self.gcc = d.u8()?;
        for w in self.int.iter_mut().chain(&mut self.fp).chain(&mut self.mc) {
            *w = Word::from_raw(d.u64()?, d.bool()?);
        }
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
