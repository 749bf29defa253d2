//! Property-based tests for the ISA crate's core invariants.

use mm_isa::asm::assemble;
use mm_isa::pointer::{GuardedPointer, Perm, ADDR_MASK};
use mm_isa::reg::{Reg, RegAddr};
use mm_isa::word::Word;
use proptest::prelude::*;

fn arb_perm() -> impl Strategy<Value = Perm> {
    prop_oneof![
        Just(Perm::None),
        Just(Perm::Read),
        Just(Perm::ReadWrite),
        Just(Perm::Execute),
        Just(Perm::Enter),
        Just(Perm::Key),
        Just(Perm::Physical),
        Just(Perm::ErrVal),
    ]
}

proptest! {
    /// Pointer arithmetic never produces an address outside the segment.
    #[test]
    fn offset_never_escapes_segment(
        perm in arb_perm(),
        log2_len in 0u8..=54,
        addr in 0u64..=ADDR_MASK,
        delta in any::<i32>(),
    ) {
        let p = GuardedPointer::new(perm, log2_len, addr).unwrap();
        match p.offset(i64::from(delta)) {
            Ok(q) => {
                prop_assert!(p.segment_contains(q.addr()));
                prop_assert_eq!(q.segment_base(), p.segment_base());
                prop_assert_eq!(q.perm(), p.perm());
            }
            Err(_) => {
                // The target really is outside the segment.
                let target = i128::from(addr) + i128::from(delta);
                let base = i128::from(p.segment_base());
                let len = i128::from(p.segment_len());
                prop_assert!(target < base || target >= base + len);
            }
        }
    }

    /// Guarded pointers survive packing into word bits and back.
    #[test]
    fn pointer_bits_round_trip(
        perm in arb_perm(),
        log2_len in 0u8..=54,
        addr in 0u64..=ADDR_MASK,
    ) {
        let p = GuardedPointer::new(perm, log2_len, addr).unwrap();
        prop_assert_eq!(GuardedPointer::from_bits(p.to_bits()), p);
        let w = Word::from_pointer(p);
        prop_assert_eq!(w.pointer().unwrap(), p);
    }

    /// Decoding arbitrary bits never panics and re-encodes identically.
    #[test]
    fn pointer_decode_total(bits in any::<u64>()) {
        let p = GuardedPointer::from_bits(bits);
        // Re-encoding may canonicalize unknown permission encodings, but a
        // second round trip must be a fixpoint.
        let q = GuardedPointer::from_bits(p.to_bits());
        prop_assert_eq!(p, q);
    }

    /// Register-address encodings round-trip for all valid triples.
    #[test]
    fn reg_addr_round_trip(
        slot in 0u8..6,
        cluster in 0u8..4,
        kind in 0u8..4,
        idx in 0u8..8,
    ) {
        let reg = match kind {
            0 => Reg::Int(idx),
            1 => Reg::Fp(idx),
            2 => Reg::Gcc(idx),
            _ => Reg::Mc(idx),
        };
        let a = RegAddr { slot, cluster, reg };
        prop_assert_eq!(RegAddr::decode(a.encode()), Some(a));
    }

    /// Words preserve integer and float payloads exactly.
    #[test]
    fn word_round_trips(v in any::<i64>(), x in any::<f64>()) {
        prop_assert_eq!(Word::from_i64(v).as_i64(), v);
        let w = Word::from_f64(x);
        if x.is_nan() {
            prop_assert!(w.as_f64().is_nan());
        } else {
            prop_assert_eq!(w.as_f64(), x);
        }
    }
}

/// A generator for small random-but-valid assembly programs.
fn arb_program_text() -> impl Strategy<Value = String> {
    let line = prop_oneof![
        (0u8..16, 0u8..16, 1u8..16).prop_map(|(a, b, d)| format!("add r{a}, r{b}, r{d}")),
        (0u8..16, any::<i16>(), 1u8..16).prop_map(|(a, v, d)| format!("sub r{a}, #{v}, r{d}")),
        (0u8..16, 0i16..64, 1u8..16).prop_map(|(b, o, d)| format!("ld [r{b}+#{o}], r{d}")),
        (0u8..16, 0u8..16).prop_map(|(s, b)| format!("st r{s}, [r{b}]")),
        (0u8..16, 0u8..16, 0u8..16).prop_map(|(a, b, d)| format!("fmul f{a}, f{b}, f{d}")),
        (0u8..16, 0u8..16, 0u8..8).prop_map(|(a, b, d)| format!("eq r{a}, r{b}, gcc{d}")),
        (1u8..16,).prop_map(|(r,)| format!("empty r{r}")),
        (0u8..4, 0u8..16, 0u8..16).prop_map(|(c, s, d)| format!("mov r{s}, h{c}.r{d}")),
        Just("nop".to_owned()),
        Just("halt".to_owned()),
    ];
    prop::collection::vec(line, 1..12).prop_map(|ls| {
        let mut s = String::new();
        for l in ls {
            s.push_str(&l);
            s.push('\n');
        }
        s
    })
}

proptest! {
    /// `Display` of an assembled program re-assembles to an equal program
    /// (the assembler/disassembler pair is a round trip).
    #[test]
    fn assemble_display_fixpoint(src in arb_program_text()) {
        let p1 = assemble(&src).expect("generated source must assemble");
        let printed = p1.to_string();
        let p2 = assemble(&printed).expect("printed source must re-assemble");
        prop_assert_eq!(p1, p2);
    }

    /// §3.2 permission lattice: `check_execute` admits exactly EXECUTE and
    /// ENTER, and an ENTER capability is execute-only — it never grants
    /// data access, no matter the segment.
    #[test]
    fn enter_capability_is_execute_only(
        perm in arb_perm(),
        log2_len in 0u8..=54,
        addr in 0u64..=ADDR_MASK,
    ) {
        let p = GuardedPointer::new(perm, log2_len, addr).unwrap();
        prop_assert_eq!(
            p.check_execute().is_ok(),
            matches!(perm, Perm::Execute | Perm::Enter)
        );
        if perm == Perm::Enter {
            prop_assert!(p.check_read().is_err());
            prop_assert!(p.check_write().is_err());
        }
    }
}

/// A protected entry point survives the pointer bit-packing round trip with
/// its permission intact — an ENTER capability cannot silently decay into a
/// readable or writable one.
#[test]
fn enter_pointer_round_trips_with_permission() {
    let p = GuardedPointer::new(Perm::Enter, 0, 42).unwrap();
    let w = Word::from_pointer(p);
    let q = w.pointer().unwrap();
    assert_eq!(q.perm(), Perm::Enter);
    assert_eq!(q.addr(), 42);
    assert!(q.check_execute().is_ok());
    assert!(q.check_read().is_err());
    assert!(q.check_write().is_err());
}

/// Mnemonics with the operand count their well-formed use takes: every
/// unit's operations, sync and priority suffixes good and bad, and a few
/// heads that are not mnemonics at all.
const SOUP_MNEMONICS: &[(&str, usize)] = &[
    ("add", 3),
    ("ADD", 3),
    ("sub", 3),
    ("shr", 3),
    ("eq", 3),
    ("ge", 3),
    ("mov", 2),
    ("imm", 2),
    ("lea", 3),
    ("setptr", 4),
    ("br", 1),
    ("brt", 2),
    ("brf", 2),
    ("jmp", 1),
    ("empty", 2),
    ("wrreg", 2),
    ("gprobe", 2),
    ("tlbwr", 1),
    ("mrestart", 3),
    ("nodeid", 1),
    ("halt", 0),
    ("nop", 0),
    ("fnop", 0),
    ("ld", 2),
    ("ld.fe", 2),
    ("ld.xx", 2),
    ("ld.", 2),
    ("st", 2),
    ("st.ef", 2),
    ("st.au", 2),
    ("send", 3),
    ("send.p1", 3),
    ("send.p9", 3),
    ("fadd", 3),
    ("feq", 3),
    ("fmadd", 4),
    ("fmov", 2),
    ("itof", 2),
    ("ftoi", 2),
    ("frob", 1),
    ("h1.", 1),
    ("", 1),
];
const SOUP_REGS: &[&str] = &[
    "r0", "r1", "r15", "r16", "r255", "r256", "f3", "f16", "gcc1", "gcc8", "mc2", "mc9", "rnet",
    "evq", "r", "R1", "h1.r2", "h3.f4", "h4.r1", "h1.", "hx.r1", "h1.rnet", "h2.evq", "r+1",
    "gcc+1", "mc+2", "h+1.r2",
];
const SOUP_IMMS: &[&str] = &[
    "#0",
    "#7",
    "#-1",
    "#0x10",
    "#9223372036854775807",
    "#9223372036854775808",
    "#-9223372036854775808",
    "#18446744073709551615",
    "#18446744073709551616",
    "#-9223372036854775809",
    "#-0x8000000000000000",
    "#0xFFFFFFFFFFFFFFFF",
    "#+5",
    "#0x+1f",
    "#",
    "#x",
    "@0",
    "@lbl",
    "@",
    "@4294967296",
    "@+5",
];
/// Offsets for `[base±offset]`, weighted to the edges of `i32` and `i64`.
const SOUP_OFFSETS: &[&str] = &[
    "#1",
    "#-1",
    "#2147483648",
    "#9223372036854775808",
    "#-9223372036854775808",
    "#18446744073709551615",
    "#+4",
    "#0x",
    "1",
];
const SOUP_NOISE: &[&str] = &[
    "[", "]", "|", ":", ";", "//", "lbl:", ",", "+", "-", ".", "h", "#", "@", "\u{a0}", "é",
];

/// Token soup from the assembler's own vocabulary, steered by a pool of
/// random choices: up to eight lines, each an optional label, one to
/// three `|`-joined operations and an optional comment. An operation is
/// a mnemonic and (mostly) its own number of operands, each a register,
/// an immediate, a `[base±offset]` address, a label or a stray token.
fn soup(choices: &[usize]) -> String {
    let mut it = choices.iter().cycle();
    let mut next = |n: usize| it.next().expect("non-empty pool") % n;
    let mut s = String::new();
    for _ in 0..1 + next(8) {
        if next(4) == 0 {
            s.push_str(["lbl:", "a: b:", "1x:", ":", "lbl :"][next(5)]);
        }
        for op in 0..1 + next(3) {
            if op > 0 {
                s.push_str(["|", " | ", "||"][next(3)]);
            }
            let (mnemonic, arity) = SOUP_MNEMONICS[next(SOUP_MNEMONICS.len())];
            s.push_str(mnemonic);
            s.push(' ');
            let n = if next(4) == 0 { next(6) } else { arity };
            for k in 0..n {
                if k > 0 {
                    s.push_str(if next(4) == 0 {
                        [",", " ", ", ,"][next(3)]
                    } else {
                        ", "
                    });
                }
                match next(5) {
                    0 => s.push_str(SOUP_REGS[next(SOUP_REGS.len())]),
                    1 => s.push_str(SOUP_IMMS[next(SOUP_IMMS.len())]),
                    2 => {
                        let closed = next(8) != 0;
                        s.push_str(if closed { "[" } else { "" });
                        s.push_str(SOUP_REGS[next(SOUP_REGS.len())]);
                        s.push_str(["+", "-", " - ", ""][next(4)]);
                        s.push_str(SOUP_OFFSETS[next(SOUP_OFFSETS.len())]);
                        s.push_str(if closed { "]" } else { "" });
                    }
                    3 => s.push_str(["lbl", "@lbl", "@3", "nowhere"][next(4)]),
                    _ => s.push_str(SOUP_NOISE[next(SOUP_NOISE.len())]),
                }
            }
        }
        if next(4) == 0 {
            s.push_str(["; c", "// c", "/", ";"][next(4)]);
        }
        s.push_str(["\n", "\r\n"][next(2)]);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The assembler returns a program or an error for any mix of its
    /// own tokens and never panics (`cargo test` builds it in debug,
    /// so an arithmetic overflow panics too).
    #[test]
    fn assemble_never_panics(choices in prop::collection::vec(0usize..1 << 16, 1..96)) {
        let src = soup(&choices);
        let _ = assemble(&src);
    }
}
