//! Property tests on the node simulator: arithmetic correctness against
//! a reference interpreter, and scoreboard/issue invariants.

use mm_isa::assemble;
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_net::message::NodeCoord;
use mm_sim::{HState, Node, NodeConfig, StepScratch};
use proptest::prelude::*;
use std::sync::Arc;

/// Advance `n` one cycle with a scratch of its own (the cycle engines
/// recycle theirs across steps).
fn step(n: &mut Node, now: u64) -> bool {
    n.step_with(now, &mut StepScratch::new())
}

fn run_to_halt(n: &mut Node, limit: u64) {
    for cycle in 0..limit {
        step(n, cycle);
        if n.thread_state(0, 0) == HState::Halted {
            for extra in cycle + 1..cycle + 32 {
                step(n, extra);
            }
            return;
        }
    }
    panic!("program did not halt");
}

/// A tiny reference interpreter over the same op stream.
fn reference(ops: &[(u8, i64)], init: i64) -> i64 {
    let mut acc = init;
    for &(kind, v) in ops {
        acc = match kind % 6 {
            0 => acc.wrapping_add(v),
            1 => acc.wrapping_sub(v),
            2 => acc.wrapping_mul(v | 1),
            3 => acc & v,
            4 => acc | v,
            _ => acc ^ v,
        };
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random dependent ALU chains compute exactly what a reference
    /// interpreter computes, regardless of pipeline timing.
    #[test]
    fn alu_chains_match_reference(
        init in any::<i32>(),
        ops in prop::collection::vec((0u8..6, -1000i64..1000), 1..24),
    ) {
        let mut src = String::new();
        for &(kind, v) in &ops {
            let line = match kind % 6 {
                0 => format!("add r1, #{v}, r1"),
                1 => format!("sub r1, #{v}, r1"),
                2 => format!("mul r1, #{}, r1", v | 1),
                3 => format!("and r1, #{v}, r1"),
                4 => format!("or r1, #{v}, r1"),
                _ => format!("xor r1, #{v}, r1"),
            };
            src.push_str(&line);
            src.push('\n');
        }
        src.push_str("halt\n");
        let prog = Arc::new(assemble(&src).unwrap());

        let mut n = Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0));
        n.write_reg(0, 0, Reg::Int(1), Word::from_i64(i64::from(init)));
        n.load_program(0, 0, prog, 0);
        run_to_halt(&mut n, 10_000);
        prop_assert_eq!(
            n.read_reg(0, 0, Reg::Int(1)).as_i64(),
            reference(&ops, i64::from(init))
        );
    }

    /// Issue is in order within an H-Thread: a counter incremented once
    /// per instruction always ends exactly at the instruction count, no
    /// matter how many other V-Threads run alongside.
    #[test]
    fn issue_in_order_under_interleaving(extra_threads in 0usize..4) {
        let body = "add r1, #1, r1\n".repeat(20) + "halt\n";
        let prog = Arc::new(assemble(&body).unwrap());
        let mut n = Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0));
        for slot in 0..=extra_threads {
            n.load_program(0, slot, prog.clone(), 0);
        }
        for cycle in 0..5_000 {
            step(&mut n, cycle);
            if (0..=extra_threads).all(|s| n.thread_state(0, s) == HState::Halted) {
                break;
            }
        }
        for slot in 0..=extra_threads {
            prop_assert_eq!(n.read_reg(0, slot, Reg::Int(1)).as_i64(), 20);
        }
    }

    /// FP arithmetic matches IEEE semantics through the pipeline.
    #[test]
    fn fp_ops_match_ieee(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let prog = Arc::new(
            assemble(
                "fadd f1, f2, f3\n fsub f1, f2, f4\n fmul f1, f2, f5\n fmadd f1, f2, f3, f6\n halt\n",
            )
            .unwrap(),
        );
        let mut n = Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0));
        n.write_reg(0, 0, Reg::Fp(1), Word::from_f64(a));
        n.write_reg(0, 0, Reg::Fp(2), Word::from_f64(b));
        n.load_program(0, 0, prog, 0);
        run_to_halt(&mut n, 1_000);
        prop_assert_eq!(n.read_reg(0, 0, Reg::Fp(3)).as_f64(), a + b);
        prop_assert_eq!(n.read_reg(0, 0, Reg::Fp(4)).as_f64(), a - b);
        prop_assert_eq!(n.read_reg(0, 0, Reg::Fp(5)).as_f64(), a * b);
        prop_assert_eq!(n.read_reg(0, 0, Reg::Fp(6)).as_f64(), a.mul_add(b, a + b));
    }
}

// ----------------------------------------------------------------------
// The packed register file vs the `Word`-array file it replaced
// ----------------------------------------------------------------------

mod regfile_layout {
    use super::*;
    use mm_faults::{Dec, Enc};
    use mm_isa::reg::{NUM_FP_REGS, NUM_INT_REGS, NUM_MC_REGS, SCOREBOARD_ALL_FULL};
    use mm_sim::ThreadRegs;

    /// The register file as it was — inline arrays of 16-byte `Word`s
    /// and a separate CC byte — kept as the reference model.
    struct WordRegs {
        full: u64,
        version: u64,
        gcc: u8,
        int: [Word; NUM_INT_REGS as usize],
        fp: [Word; NUM_FP_REGS as usize],
        mc: [Word; NUM_MC_REGS as usize],
    }

    impl WordRegs {
        fn new() -> WordRegs {
            WordRegs {
                full: SCOREBOARD_ALL_FULL,
                version: 0,
                gcc: 0,
                int: [Word::ZERO; NUM_INT_REGS as usize],
                fp: [Word::ZERO; NUM_FP_REGS as usize],
                mc: [Word::ZERO; NUM_MC_REGS as usize],
            }
        }

        fn read(&self, reg: Reg) -> Word {
            match reg {
                Reg::Int(0) => Word::ZERO,
                Reg::Int(n) => self.int[n as usize],
                Reg::Fp(n) => self.fp[n as usize],
                Reg::Mc(n) => self.mc[n as usize],
                Reg::Gcc(n) => Word::from_bool(self.gcc & (1 << n) != 0),
                Reg::NetIn | Reg::EvQ => unreachable!("not generated"),
            }
        }

        fn write(&mut self, reg: Reg, value: Word) {
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

        fn clear(&mut self, reg: Reg) {
            if matches!(reg, Reg::Int(0) | Reg::NetIn | Reg::EvQ) {
                return;
            }
            if let Some(bit) = reg.scoreboard_bit() {
                self.full &= !(1u64 << bit);
            }
            self.version += 1;
        }

        fn save_state(&self, e: &mut Enc) {
            e.u64(self.full);
            e.u64(self.version);
            e.u8(self.gcc);
            for w in self.int.iter().chain(&self.fp).chain(&self.mc) {
                e.u64(w.bits());
                e.bool(w.is_pointer());
            }
        }
    }

    /// Every register name the file stores, queue registers included
    /// (writes to them are no-ops in both layouts).
    fn all_regs() -> Vec<Reg> {
        (0..NUM_INT_REGS)
            .map(Reg::Int)
            .chain((0..NUM_FP_REGS).map(Reg::Fp))
            .chain((0..NUM_MC_REGS).map(Reg::Mc))
            .chain((0..8).map(Reg::Gcc))
            .collect()
    }

    fn bytes(save: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut e = Enc::new();
        save(&mut e);
        e.finish()
    }

    fn check(new: &ThreadRegs, old: &WordRegs) {
        for reg in all_regs() {
            let (a, b) = (new.read(reg), old.read(reg));
            assert_eq!(a, b, "{reg}");
            assert_eq!(a.is_pointer(), b.is_pointer(), "{reg} tag");
            let bit = 1u64 << reg.scoreboard_bit().expect("not a queue register");
            assert_eq!(new.is_full(reg), old.full & bit != 0, "{reg} full");
        }
        assert_eq!(new.scoreboard(), old.full);
        assert_eq!(new.version(), old.version);
        assert_eq!(bytes(|e| new.save_state(e)), bytes(|e| old.save_state(e)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Writes (data and tagged pointers, r0 and CC registers
        /// included), clears and checkpoint round trips leave the packed
        /// file equal to the `Word`-array one in every value, tag,
        /// full/empty bit, mutation count and checkpoint byte.
        #[test]
        fn packed_regs_match_word_regs(
            ops in prop::collection::vec((0u8..4, 0usize..48, any::<u64>(), any::<bool>()), 1..120)
        ) {
            let regs = all_regs();
            let mut new = ThreadRegs::new();
            let mut old = WordRegs::new();
            for &(kind, r, bits, tag) in &ops {
                let reg = match r {
                    40 => Reg::NetIn,
                    41 => Reg::EvQ,
                    r => regs[r % regs.len()],
                };
                match kind {
                    0 | 1 => {
                        // Small values too, so CC writes see zero.
                        let v = Word::from_raw(if kind == 0 { bits & 1 } else { bits }, tag);
                        new.write(reg, v);
                        old.write(reg, v);
                    }
                    2 => {
                        new.clear(reg);
                        old.clear(reg);
                    }
                    _ => {
                        let saved = bytes(|e| new.save_state(e));
                        let mut back = ThreadRegs::new();
                        back.write(Reg::Int(3), Word::from_u64(9)); // overwritten
                        let mut d = Dec::new(&saved);
                        back.load_state(&mut d).expect("load");
                        prop_assert_eq!(d.remaining(), 0);
                        new = back;
                    }
                }
                check(&new, &old);
            }
        }
    }
}
