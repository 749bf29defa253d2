//! The assembler's corpus: malformed sources pinned to the exact error
//! they raise (its `Display`: line and kind), and odd-but-accepted
//! sources pinned to the exact program they assemble to.
//!
//! Every [`AsmErrorKind`] appears at least once. The cases lean on the
//! corners a re-implementation of the front end could move: comment and
//! label splitting, whitespace inside operands, which of several faults
//! on one line is reported first, `+`-signed numbers (refused) and the
//! edges of `i64` immediates. On a mismatch the failure lists every
//! differing case with what it got.

use mm_isa::asm::assemble;
use mm_isa::error::AsmErrorKind;

/// `(source, expected error Display)`.
const ERRORS: &[(&str, &str)] = &[
    ("frobnicate r1", "line 1: unknown mnemonic `frobnicate`"),
    ("FROB r1", "line 1: unknown mnemonic `frob`"),
    ("ADD R1, r2, r3", "line 1: bad operand `R1`"),
    ("add r1, r2", "line 1: `add` expects 3 operand(s), got 2"),
    (
        "add r1, r2, r3,",
        "line 1: `add` expects 3 operand(s), got 4",
    ),
    ("add r1,, r3", "line 1: bad operand ``"),
    ("halt r1", "line 1: `halt` expects 0 operand(s), got 1"),
    ("halt ,", "line 1: `halt` expects 0 operand(s), got 2"),
    ("nop /", "line 1: `nop` expects 0 operand(s), got 1"),
    ("empty", "line 1: `empty` expects 1+ operand(s), got 0"),
    ("br nowhere", "line 1: undefined label `nowhere`"),
    ("br 5", "line 1: undefined label `5`"),
    ("br @nowhere", "line 1: undefined label `nowhere`"),
    ("mov @x, r1", "line 1: undefined label `x`"),
    ("mov @ x, r1", "line 1: undefined label ` x`"),
    ("br +5", "line 1: undefined label `+5`"),
    ("x: nop\nx: nop", "line 2: duplicate label `x`"),
    ("x: x: nop", "line 1: duplicate label `x`"),
    ("bogus\nx: nop\nx: nop", "line 3: duplicate label `x`"),
    (
        "add r1, r2, r3 | sub r4, r5, r6 | and r1, r2, r3",
        "line 1: no free execution unit for `and r1, r2, r3` in this instruction",
    ),
    (
        "ld [r1], r2 | st r2, [r3]",
        "line 1: no free execution unit for `st r2, [r3]` in this instruction",
    ),
    (
        "fadd f1, f2, f3 | fmul f1, f2, f3",
        "line 1: no free execution unit for `fmul f1, f2, f3` in this instruction",
    ),
    (
        "empty r1 | empty r2 | empty r3 | empty r4",
        "line 1: no free execution unit for `empty` in this instruction",
    ),
    (
        "add r1, r2, r3 | add r1, r2, r3 | add r1, r2, r3 | frob",
        "line 1: no free execution unit for `add r1, r2, r3` in this instruction",
    ),
    ("mov r1, rnet", "line 1: invalid destination `rnet`"),
    ("mov r1, evq", "line 1: invalid destination `evq`"),
    ("mov r1, #3", "line 1: bad operand `#3`"),
    ("add r1, r2, r99", "line 1: register out of range `r99`"),
    ("add r1, r2, r300", "line 1: bad operand `r300`"),
    ("add r1, r2, h4.r4", "line 1: register out of range `h4.r4`"),
    ("add r1, r2, h1.r99", "line 1: register out of range `r99`"),
    (
        "add r1, r2, h1. r99",
        "line 1: register out of range ` r99`",
    ),
    ("add r1, r2, hx.r1", "line 1: bad operand `hx.r1`"),
    ("add r1, r2, h+1.r2", "line 1: bad operand `h+1.r2`"),
    (
        "add r1, r2, h1.rnet",
        "line 1: invalid destination `h1.rnet`",
    ),
    ("add r1, r2, h3.evq", "line 1: invalid destination `h3.evq`"),
    ("add r+1, r2, r3", "line 1: bad operand `r+1`"),
    ("mov gcc+1, r1", "line 1: bad operand `gcc+1`"),
    ("mov r1, mc+2", "line 1: bad operand `mc+2`"),
    ("add r1, r2, h256.r1", "line 1: bad operand `h256.r1`"),
    ("add r1, r2, h", "line 1: bad operand `h`"),
    ("mov gcc8, r1", "line 1: register out of range `gcc8`"),
    ("mov mc9, r1", "line 1: register out of range `mc9`"),
    ("mov f16, r1", "line 1: register out of range `f16`"),
    ("mov r, r1", "line 1: bad operand `r`"),
    ("mov rnetx, r1", "line 1: bad operand `rnetx`"),
    ("mov gccx, r1", "line 1: bad operand `gccx`"),
    (
        "ld [r1+#2147483648], r2",
        "line 1: bad immediate `#2147483648`",
    ),
    (
        "ld [r1-#2147483649], r2",
        "line 1: bad immediate `#2147483649`",
    ),
    (
        "ld [r1-#9223372036854775808], r2",
        "line 1: bad immediate `#9223372036854775808`",
    ),
    ("ld [r1+4], r2", "line 1: bad operand `4`"),
    ("ld r1, r2", "line 1: bad operand `r1`"),
    ("ld [r1, r2", "line 1: bad operand `[r1`"),
    ("ld [r1+#1-#2], r2", "line 1: bad immediate `#1-#2`"),
    ("ld [-#3], r2", "line 1: bad operand ``"),
    ("ld [rx-#zz], r2", "line 1: bad immediate `#zz`"),
    ("ld.xx [r1], r2", "line 1: bad operand `xx`"),
    ("ld.f [r1], r2", "line 1: bad operand `f`"),
    ("ld.FE [r1], r2", "line 1: bad operand `FE`"),
    ("ld.fe.x [r1], r2", "line 1: bad operand `fe.x`"),
    ("st.zz r1, [r2]", "line 1: bad operand `zz`"),
    ("ld.fe [r1]", "line 1: `ld` expects 2 operand(s), got 1"),
    ("send r1, r2, #8", "line 1: bad immediate `#8`"),
    ("send r1, r2, r3", "line 1: bad operand `r3`"),
    ("send.p2 r1, r2, #1", "line 1: bad operand `p2`"),
    ("send.P1 r1, r2, #1", "line 1: bad operand `P1`"),
    (
        "send.p2 r1, r2",
        "line 1: `send` expects 3 operand(s), got 2",
    ),
    ("send r1, r2, #-1", "line 1: bad immediate `#-1`"),
    ("send rx, r2, #1", "line 1: bad operand `rx`"),
    ("mov #abc, r1", "line 1: bad immediate `#abc`"),
    ("mov #, r1", "line 1: bad immediate `#`"),
    ("mov #0x, r1", "line 1: bad immediate `#0x`"),
    (
        "mov #9223372036854775808, r1",
        "line 1: bad immediate `#9223372036854775808`",
    ),
    (
        "mov #-9223372036854775809, r1",
        "line 1: bad immediate `#-9223372036854775809`",
    ),
    (
        "mov #18446744073709551615, r1",
        "line 1: bad immediate `#18446744073709551615`",
    ),
    (
        "mov #18446744073709551616, r1",
        "line 1: bad immediate `#18446744073709551616`",
    ),
    (
        "mov #0x8000000000000000, r1",
        "line 1: bad immediate `#0x8000000000000000`",
    ),
    (
        "mov #0xFFFFFFFFFFFFFFFF, r1",
        "line 1: bad immediate `#0xFFFFFFFFFFFFFFFF`",
    ),
    ("mov #+5, r1", "line 1: bad immediate `#+5`"),
    ("mov #0x+1f, r1", "line 1: bad immediate `#0x+1f`"),
    ("ld [r1+#+4], r2", "line 1: bad immediate `#+4`"),
    ("mov @+5, r1", "line 1: undefined label `+5`"),
    ("br @+5", "line 1: undefined label `+5`"),
    ("mov #- 5, r1", "line 1: bad immediate `#- 5`"),
    ("1x: nop", "line 1: unknown mnemonic `1x:`"),
    ("a b: nop", "line 1: unknown mnemonic `a`"),
    ("ld [r1], r2 | x: nop", "line 1: unknown mnemonic `x:`"),
    ("é: nop", "line 1: unknown mnemonic `é:`"),
    (
        "nop\n\n  ; only a comment\n bogus r1",
        "line 4: unknown mnemonic `bogus`",
    ),
    ("nop\r\nbogus\r\n", "line 2: unknown mnemonic `bogus`"),
    ("add r1, r2, r3\u{c}nop", "line 1: bad operand `r3\u{c}nop`"),
    (
        "setptr r1, r2, r3",
        "line 1: `setptr` expects 4 operand(s), got 3",
    ),
    (
        "fmadd f1, f2, f3",
        "line 1: `fmadd` expects 4 operand(s), got 3",
    ),
    ("jmp #1", "line 1: bad operand `#1`"),
    ("tlbwr", "line 1: `tlbwr` expects 1 operand(s), got 0"),
    ("brt r1", "line 1: `brt` expects 2 operand(s), got 1"),
    ("brt r1, nowhere", "line 1: undefined label `nowhere`"),
    ("brt rx, nowhere", "line 1: bad operand `rx`"),
    ("lea #1, r2, r3", "line 1: bad operand `#1`"),
    ("wrreg r1", "line 1: `wrreg` expects 2 operand(s), got 1"),
    (
        "mrestart r1, r2",
        "line 1: `mrestart` expects 3 operand(s), got 2",
    ),
    ("nodeid rnet", "line 1: invalid destination `rnet`"),
    ("fnop f1", "line 1: `fnop` expects 0 operand(s), got 1"),
    ("fmov f1", "line 1: `fmov` expects 2 operand(s), got 1"),
    ("itof r1, #2", "line 1: bad operand `#2`"),
    ("ftoi r1", "line 1: `ftoi` expects 2 operand(s), got 1"),
    ("gprobe r1", "line 1: `gprobe` expects 2 operand(s), got 1"),
];

/// `(source, expected Debug of (instructions, symbols))`.
const ACCEPTED: &[(&str, &str)] = &[
    ("ADD r1, r2, r3", "([Instruction { int_op: Some(Alu { kind: Add, a: Reg(Int(1)), b: Reg(Int(2)), dst: Local(Int(3)) }), mem_op: None, fp_op: None }], {})"),
    ("add.fe r1, r2, r3", "([Instruction { int_op: Some(Alu { kind: Add, a: Reg(Int(1)), b: Reg(Int(2)), dst: Local(Int(3)) }), mem_op: None, fp_op: None }], {})"),
    ("add.x.y r1, r2, r3", "([Instruction { int_op: Some(Alu { kind: Add, a: Reg(Int(1)), b: Reg(Int(2)), dst: Local(Int(3)) }), mem_op: None, fp_op: None }], {})"),
    ("LD.fe [r1], r2", "([Instruction { int_op: None, mem_op: Some(Mem(Load { base: Int(1), offset: 0, dst: Local(Int(2)), pre: Full, post: SetEmpty })), fp_op: None }], {})"),
    ("x :nop", "([Instruction { int_op: Some(Nop), mem_op: None, fp_op: None }], {\"x\": 0})"),
    ("x:y: nop", "([Instruction { int_op: Some(Nop), mem_op: None, fp_op: None }], {\"x\": 0, \"y\": 0})"),
    ("_a1: nop\nbr _a1", "([Instruction { int_op: Some(Nop), mem_op: None, fp_op: None }, Instruction { int_op: Some(Branch { cond: Always, target: 0 }), mem_op: None, fp_op: None }], {\"_a1\": 0})"),
    ("nop\nend:", "([Instruction { int_op: Some(Nop), mem_op: None, fp_op: None }], {\"end\": 1})"),
    ("end: ; nothing", "([], {\"end\": 0})"),
    ("|\nhalt", "([Instruction { int_op: None, mem_op: None, fp_op: None }, Instruction { int_op: Some(Halt), mem_op: None, fp_op: None }], {})"),
    ("nop || nop", "([Instruction { int_op: Some(Nop), mem_op: Some(Int(Nop)), fp_op: None }], {})"),
    ("add r1, r2, r3 |", "([Instruction { int_op: Some(Alu { kind: Add, a: Reg(Int(1)), b: Reg(Int(2)), dst: Local(Int(3)) }), mem_op: None, fp_op: None }], {})"),
    ("ld [r1 + #4], r2", "([Instruction { int_op: None, mem_op: Some(Mem(Load { base: Int(1), offset: 4, dst: Local(Int(2)), pre: Any, post: Unchanged })), fp_op: None }], {})"),
    ("ld [r1-#-3], r2", "([Instruction { int_op: None, mem_op: Some(Mem(Load { base: Int(1), offset: 3, dst: Local(Int(2)), pre: Any, post: Unchanged })), fp_op: None }], {})"),
    ("ld [r1+#-3], r2", "([Instruction { int_op: None, mem_op: Some(Mem(Load { base: Int(1), offset: -3, dst: Local(Int(2)), pre: Any, post: Unchanged })), fp_op: None }], {})"),
    ("ld [ r1 ], r2", "([Instruction { int_op: None, mem_op: Some(Mem(Load { base: Int(1), offset: 0, dst: Local(Int(2)), pre: Any, post: Unchanged })), fp_op: None }], {})"),
    ("mov #-9223372036854775808, r1", "([Instruction { int_op: Some(Mov { src: Imm(-9223372036854775808), dst: Local(Int(1)) }), mem_op: None, fp_op: None }], {})"),
    ("mov #9223372036854775807, r1", "([Instruction { int_op: Some(Mov { src: Imm(9223372036854775807), dst: Local(Int(1)) }), mem_op: None, fp_op: None }], {})"),
    ("mov #-0x8000000000000000, r1", "([Instruction { int_op: Some(Mov { src: Imm(-9223372036854775808), dst: Local(Int(1)) }), mem_op: None, fp_op: None }], {})"),
    ("mov #0X1F, r1", "([Instruction { int_op: Some(Mov { src: Imm(31), dst: Local(Int(1)) }), mem_op: None, fp_op: None }], {})"),
    ("mov # 5, r1", "([Instruction { int_op: Some(Mov { src: Imm(5), dst: Local(Int(1)) }), mem_op: None, fp_op: None }], {})"),
    ("mov #-0x10, r1", "([Instruction { int_op: Some(Mov { src: Imm(-16), dst: Local(Int(1)) }), mem_op: None, fp_op: None }], {})"),
    ("br @7", "([Instruction { int_op: Some(Branch { cond: Always, target: 7 }), mem_op: None, fp_op: None }], {})"),
    ("mov r01, f02", "([Instruction { int_op: Some(Mov { src: Reg(Int(1)), dst: Local(Fp(2)) }), mem_op: None, fp_op: None }], {})"),
    ("add r1, r2, h1. r3", "([Instruction { int_op: Some(Alu { kind: Add, a: Reg(Int(1)), b: Reg(Int(2)), dst: Remote { cluster: 1, reg: Int(3) } }), mem_op: None, fp_op: None }], {})"),
    ("send r1, r2, @x\nnop\nnop\nx: halt", "([Instruction { int_op: None, mem_op: Some(Mem(Send { dest: Int(1), dip: Int(2), len: 3, priority: P0 })), fp_op: None }, Instruction { int_op: Some(Nop), mem_op: None, fp_op: None }, Instruction { int_op: Some(Nop), mem_op: None, fp_op: None }, Instruction { int_op: Some(Halt), mem_op: None, fp_op: None }], {\"x\": 3})"),
    ("send.p0 r1, r2, #7", "([Instruction { int_op: None, mem_op: Some(Mem(Send { dest: Int(1), dip: Int(2), len: 7, priority: P0 })), fp_op: None }], {})"),
    ("\u{a0}nop\u{a0}", "([Instruction { int_op: Some(Nop), mem_op: None, fp_op: None }], {})"),
    ("x\u{a0}: nop", "([Instruction { int_op: Some(Nop), mem_op: None, fp_op: None }], {\"x\": 0})"),
    ("add\u{3000}r1, r2, r3", "([Instruction { int_op: Some(Alu { kind: Add, a: Reg(Int(1)), b: Reg(Int(2)), dst: Local(Int(3)) }), mem_op: None, fp_op: None }], {})"),
    ("nop // a ; b", "([Instruction { int_op: Some(Nop), mem_op: None, fp_op: None }], {})"),
    ("nop ; a // b", "([Instruction { int_op: Some(Nop), mem_op: None, fp_op: None }], {})"),
    ("\tnop\t;tab", "([Instruction { int_op: Some(Nop), mem_op: None, fp_op: None }], {})"),
    ("empty r1, f2, gcc3, mc4, r5, r6, r7, r8, r9, r10", "([Instruction { int_op: Some(Empty { regs: [Int(1), Fp(2), Gcc(3), Mc(4), Int(5), Int(6), Int(7), Int(8), Int(9), Int(10)] }), mem_op: None, fp_op: None }], {})"),
    ("mov r1, r2 | empty r3 | empty r4", "([Instruction { int_op: Some(Mov { src: Reg(Int(1)), dst: Local(Int(2)) }), mem_op: Some(Int(Empty { regs: [Int(3)] })), fp_op: Some(Empty { regs: [Int(4)] }) }], {})"),
    ("nop\u{b}", "([Instruction { int_op: Some(Nop), mem_op: None, fp_op: None }], {})"),
    ("add r1, r2, r3\u{c}", "([Instruction { int_op: Some(Alu { kind: Add, a: Reg(Int(1)), b: Reg(Int(2)), dst: Local(Int(3)) }), mem_op: None, fp_op: None }], {})"),
    ("mov evq, r2 | jmp rnet", "([Instruction { int_op: Some(Mov { src: Reg(EvQ), dst: Local(Int(2)) }), mem_op: Some(Int(JmpReg { target: NetIn })), fp_op: None }], {})"),
];

fn outcome(src: &str) -> String {
    match assemble(src) {
        Ok(p) => format!("{:?}", (p.instrs(), p.symbols())),
        Err(e) => e.to_string(),
    }
}

fn check(table: &[(&str, &str)]) -> Vec<String> {
    table
        .iter()
        .filter_map(|&(src, want)| {
            let got = outcome(src);
            (got != want).then(|| format!("    ({src:?}, {got:?}),"))
        })
        .collect()
}

#[test]
fn malformed_sources_raise_their_pinned_errors() {
    let diffs = check(ERRORS);
    assert!(
        diffs.is_empty(),
        "{} cases differ; got:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
    // Every kind of error is exercised.
    let mut seen = [false; 9];
    for (src, _) in ERRORS {
        let kind = assemble(src).expect_err("an error case").kind;
        seen[match kind {
            AsmErrorKind::UnknownMnemonic(_) => 0,
            AsmErrorKind::BadOperand(_) => 1,
            AsmErrorKind::WrongArity { .. } => 2,
            AsmErrorKind::UndefinedLabel(_) => 3,
            AsmErrorKind::DuplicateLabel(_) => 4,
            AsmErrorKind::TooManyOps(_) => 5,
            AsmErrorKind::BadDestination(_) => 6,
            AsmErrorKind::RegisterRange(_) => 7,
            AsmErrorKind::BadImmediate(_) => 8,
        }] = true;
    }
    assert_eq!(seen, [true; 9], "an error kind has no case");
}

#[test]
fn odd_sources_assemble_to_their_pinned_programs() {
    let diffs = check(ACCEPTED);
    assert!(
        diffs.is_empty(),
        "{} cases differ; got:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
