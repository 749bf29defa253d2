//! A two-pass assembler for the MAP instruction set.
//!
//! ## Syntax
//!
//! One instruction per line; up to three operations separated by `|`
//! (the assembler assigns them to the integer, memory and FP units).
//! Destinations come **last**, following the paper's examples
//! (`MOVE Rnet, R1`; `eq bar end gcc1`). Comments start with `;` or `//`.
//!
//! ```text
//! loop:                          ; labels end with ':'
//!     ld [r5+#2], f1 | fadd f1, f2, f3
//!     eq r1, r2, gcc1            ; compare into a global CC register
//!     brf gcc1, loop             ; branch if gcc1 is zero
//!     add r1, #1, h2.r4          ; write a register on cluster 2
//!     st.ef r3, [r6]             ; store, pre=empty post=full sync bits
//!     send r2, r3, #1            ; SEND dest-VA, DIP, body = mc1
//!     halt
//! ```
//!
//! Immediate operands are written `#N` (decimal, `#0x..` hex, negative
//! allowed); `@label` is an immediate holding a label's instruction index.
//!
//! ## Cost
//!
//! Building a machine is mostly assembling its programs, so a line
//! costs a fixed number of byte scans and no allocation of its own:
//!
//! * pass 1 reads each line once: the scan that finds its end or its
//!   comment (and skips the comment) trims the code as it goes, and the
//!   `label:` prefixes are read as identifier runs. It keeps the line
//!   number and code slice of every instruction;
//! * pass 2 splits each kept slice at `|` and each operation once more:
//!   mnemonic, `.suffix`, and up to four trimmed operand slices plus
//!   their count. The mnemonic is lowercased into a stack buffer and
//!   matched as bytes, and numbers are parsed in place.
//!
//! Trimming skips ASCII blanks a byte at a time and hands only a
//! non-ASCII end to `str::trim`, so Unicode blanks still trim. Besides
//! the pass-1 slice table, the only allocations are what the
//! [`Program`] keeps: its instructions, its issue descriptors, one
//! `String` per label and each `empty`'s register list. An error
//! allocates its message. The benchmark's `isa.assemble.us_per_instr`
//! (the three runtime handlers) reads about 0.34 µs per instruction on
//! a 2-vCPU Xeon guest.

use crate::error::{AsmError, AsmErrorKind};
use crate::instr::{Instruction, Program};
use crate::op::{
    AluKind, BranchCond, CmpKind, FpKind, FpOp, IntOp, MemOp, MemSlotOp, Priority, SyncPost,
    SyncPre,
};
use crate::reg::{Dst, Reg, Src, NUM_CLUSTERS};
use std::collections::BTreeMap;

/// Assemble MAP assembly source into a [`Program`].
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered, tagged with its source line.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = mm_isa::asm::assemble("start: add r1, #2, r1\n halt\n")?;
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.entry("start"), Some(0));
/// # Ok(())
/// # }
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    // Pass 1: collect labels, and each instruction's line and code.
    let mut symbols: BTreeMap<String, u32> = BTreeMap::new();
    let mut lines: Vec<(usize, &str)> = Vec::new();
    let mut source = source;
    let mut line = 0;
    while !source.is_empty() {
        line += 1;
        // The code runs to the line's end or its comment, whichever is
        // first; a comment is skipped to the line's end.
        let (mut rest, end) = field(source, |b, i| {
            b[i] == b'\n' || b[i] == b';' || (b[i] == b'/' && b.get(i + 1) == Some(&b'/'))
        });
        source = source[end..]
            .find('\n')
            .map_or("", |k| &source[end + k + 1..]);
        while let Some((label, after)) = split_label(rest) {
            #[allow(clippy::cast_possible_truncation)]
            if symbols
                .insert(label.to_owned(), lines.len() as u32)
                .is_some()
            {
                return Err(err(line, AsmErrorKind::DuplicateLabel(label.to_owned())));
            }
            rest = after;
        }
        if !rest.is_empty() {
            lines.push((line, rest));
        }
    }

    // Pass 2: parse operations.
    let mut instrs = Vec::with_capacity(lines.len());
    for (line, rest) in lines {
        let mut instr = Instruction::empty();
        for op_text in pieces(rest, b'|') {
            if !op_text.is_empty() {
                place_op(line, parse_op(line, op_text, &symbols)?, &mut instr)?;
            }
        }
        instrs.push(instr);
    }

    Ok(Program::from_parts(instrs, symbols))
}

/// Scan `s` up to the first byte at which `stop` holds (or its end) in
/// one pass, returning the text before it, trimmed, and the stop index.
/// ASCII blanks are trimmed as they are scanned; only a non-ASCII end,
/// which may be a Unicode blank, is left to `str::trim`.
fn field(s: &str, stop: impl Fn(&[u8], usize) -> bool) -> (&str, usize) {
    let b = s.as_bytes();
    let (mut first, mut last, mut i) = (b.len(), 0, 0);
    while i < b.len() && !stop(b, i) {
        if !blank(b[i]) {
            first = first.min(i);
            last = i + 1;
        }
        i += 1;
    }
    (unicode_trim(s.get(first..last).unwrap_or("")), i)
}

/// `s.trim()`: ASCII blanks are skipped a byte at a time from both
/// ends, and only a non-ASCII end is left to `str::trim`.
fn trim(s: &str) -> &str {
    let b = s.as_bytes();
    let first = b.iter().position(|&c| !blank(c)).unwrap_or(b.len());
    let last = b.iter().rposition(|&c| !blank(c)).map_or(first, |i| i + 1);
    unicode_trim(&s[first..last])
}

/// An ASCII `char::is_whitespace`.
fn blank(c: u8) -> bool {
    c == b' ' || (b'\t'..=b'\r').contains(&c)
}

/// `s.trim()` for an `s` with no ASCII blank at either end: a non-ASCII
/// end may still be a Unicode blank.
fn unicode_trim(s: &str) -> &str {
    match (s.as_bytes().first(), s.as_bytes().last()) {
        (Some(&f), Some(&l)) if f >= 0x80 || l >= 0x80 => s.trim(),
        _ => s,
    }
}

/// The pieces of `text` between `sep` bytes, each trimmed: what
/// `text.split(sep).map(str::trim)` yields.
fn pieces(text: &str, sep: u8) -> impl Iterator<Item = &str> {
    let mut rest = Some(text);
    std::iter::from_fn(move || {
        let s = rest?;
        let (piece, end) = field(s, |b, i| b[i] == sep);
        rest = s.get(end + 1..);
        Some(piece)
    })
}

/// `s.split_once(sep)` for an ASCII `sep`, by a byte scan.
fn split_at_byte(s: &str, sep: u8) -> Option<(&str, &str)> {
    let i = s.bytes().position(|b| b == sep)?;
    Some((&s[..i], &s[i + 1..]))
}

/// Split one leading `label:` off `rest` (which starts at a non-blank):
/// an identifier not starting with a digit, optional blanks, a colon.
/// Returns the label and the code after it, blanks skipped.
fn split_label(rest: &str) -> Option<(&str, &str)> {
    let len = rest
        .bytes()
        .take_while(|&b| b.is_ascii_alphanumeric() || b == b'_')
        .count();
    let after = rest[len..].trim_start().strip_prefix(':')?;
    (len > 0 && !rest.as_bytes()[0].is_ascii_digit()).then(|| (&rest[..len], after.trim_start()))
}

/// A parsed operation before unit placement.
enum ParsedOp {
    Int(IntOp),
    Mem(MemOp),
    Fp(FpOp),
    /// `empty` may execute on any unit.
    AnyEmpty(Vec<Reg>),
}

/// Assign a parsed op to a free execution-unit slot.
fn place_op(line: usize, op: ParsedOp, instr: &mut Instruction) -> Result<(), AsmError> {
    match op {
        ParsedOp::Mem(m) => {
            if instr.mem_op.is_some() {
                return Err(err(line, AsmErrorKind::TooManyOps(m.to_string())));
            }
            instr.mem_op = Some(MemSlotOp::Mem(m));
        }
        ParsedOp::Fp(fp) => {
            if instr.fp_op.is_some() {
                return Err(err(line, AsmErrorKind::TooManyOps(fp.to_string())));
            }
            instr.fp_op = Some(fp);
        }
        ParsedOp::Int(i) => {
            if instr.int_op.is_none() {
                instr.int_op = Some(i);
            } else if instr.mem_op.is_none() {
                // The memory unit is an integer ALU too (§2).
                instr.mem_op = Some(MemSlotOp::Int(i));
            } else {
                return Err(err(line, AsmErrorKind::TooManyOps(i.to_string())));
            }
        }
        ParsedOp::AnyEmpty(regs) => {
            if instr.int_op.is_none() {
                instr.int_op = Some(IntOp::Empty { regs });
            } else if instr.mem_op.is_none() {
                instr.mem_op = Some(MemSlotOp::Int(IntOp::Empty { regs }));
            } else if instr.fp_op.is_none() {
                instr.fp_op = Some(FpOp::Empty { regs });
            } else {
                return Err(err(line, AsmErrorKind::TooManyOps("empty".into())));
            }
        }
    }
    Ok(())
}

fn err(line: usize, kind: AsmErrorKind) -> AsmError {
    AsmError { line, kind }
}

fn parse_reg(tok: &str) -> Option<Reg> {
    let tok = trim(tok);
    let n = || tok.get(1..)?.parse().ok();
    Some(match tok.as_bytes().first()? {
        b'r' if tok == "rnet" => Reg::NetIn,
        b'r' => Reg::Int(n()?),
        b'f' => Reg::Fp(n()?),
        b'g' => Reg::Gcc(tok.strip_prefix("gcc")?.parse().ok()?),
        b'm' => Reg::Mc(tok.strip_prefix("mc")?.parse().ok()?),
        b'e' if tok == "evq" => Reg::EvQ,
        _ => return None,
    })
}

fn parse_reg_checked(line: usize, tok: &str) -> Result<Reg, AsmError> {
    let r = parse_reg(tok).ok_or_else(|| err(line, AsmErrorKind::BadOperand(tok.to_owned())))?;
    if !r.is_valid() {
        return Err(err(line, AsmErrorKind::RegisterRange(tok.to_owned())));
    }
    Ok(r)
}

fn parse_imm_value(text: &str) -> Option<i64> {
    let text = trim(text);
    let (neg, body) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text),
    };
    let magnitude = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<u64>().ok()?
    };
    #[allow(clippy::cast_possible_wrap)]
    let v = if neg {
        (magnitude as i64).checked_neg()?
    } else {
        magnitude as i64
    };
    Some(v)
}

/// A source operand; `tok` is trimmed, as every operand slice is.
fn parse_src(line: usize, tok: &str, symbols: &BTreeMap<String, u32>) -> Result<Src, AsmError> {
    if let Some(imm) = tok.strip_prefix('#') {
        let v = parse_imm_value(imm)
            .ok_or_else(|| err(line, AsmErrorKind::BadImmediate(tok.to_owned())))?;
        return Ok(Src::Imm(v));
    }
    if let Some(label) = tok.strip_prefix('@') {
        if let Ok(idx) = label.parse::<u32>() {
            return Ok(Src::Imm(i64::from(idx)));
        }
        let idx = symbols
            .get(label)
            .ok_or_else(|| err(line, AsmErrorKind::UndefinedLabel(label.to_owned())))?;
        return Ok(Src::Imm(i64::from(*idx)));
    }
    Ok(Src::Reg(parse_reg_checked(line, tok)?))
}

/// A destination operand (`tok` trimmed): a local register or `hN.reg`.
fn parse_dst(line: usize, tok: &str) -> Result<Dst, AsmError> {
    if let Some((cluster, reg)) = tok.strip_prefix('h').and_then(|r| split_at_byte(r, b'.')) {
        if let Ok(cluster) = cluster.parse::<u8>() {
            if cluster >= NUM_CLUSTERS {
                return Err(err(line, AsmErrorKind::RegisterRange(tok.to_owned())));
            }
            let reg = parse_reg_checked(line, reg)?;
            return Ok(Dst::Remote { cluster, reg });
        }
    }
    let reg = parse_reg_checked(line, tok)?;
    if reg.is_queue() {
        return Err(err(line, AsmErrorKind::BadDestination(tok.to_owned())));
    }
    Ok(Dst::Local(reg))
}

/// Parse a `[base]` / `[base+#off]` / `[base-#off]` memory operand
/// (`tok` trimmed). The offset is read before the base.
fn parse_addr(line: usize, tok: &str) -> Result<(Reg, i32), AsmError> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(line, AsmErrorKind::BadOperand(tok.to_owned())))?;
    let inner = trim(inner);
    let (base_text, offset) = if let Some((base, off)) = split_at_byte(inner, b'+') {
        (base, parse_offset(line, off, false)?)
    } else if let Some((base, off)) = split_at_byte(inner, b'-') {
        (base, parse_offset(line, off, true)?)
    } else {
        (inner, 0)
    };
    Ok((parse_reg_checked(line, base_text)?, offset))
}

fn parse_offset(line: usize, text: &str, negate: bool) -> Result<i32, AsmError> {
    let text = trim(text);
    let body = text
        .strip_prefix('#')
        .ok_or_else(|| err(line, AsmErrorKind::BadOperand(text.to_owned())))?;
    let v = parse_imm_value(body)
        .ok_or_else(|| err(line, AsmErrorKind::BadImmediate(text.to_owned())))?;
    // `-#9223372036854775808` reads as `i64::MIN`, which has no negation.
    let v = if negate { v.checked_neg() } else { Some(v) };
    v.and_then(|v| i32::try_from(v).ok())
        .ok_or_else(|| err(line, AsmErrorKind::BadImmediate(text.to_owned())))
}

/// The `.xy` sync suffix of `ld`/`st`: precondition, postcondition.
fn parse_sync_suffix(line: usize, suffix: Option<&str>) -> Result<(SyncPre, SyncPost), AsmError> {
    let Some(suffix) = suffix else {
        return Ok((SyncPre::Any, SyncPost::Unchanged));
    };
    let bad = || err(line, AsmErrorKind::BadOperand(suffix.to_owned()));
    let &[pre, post] = suffix.as_bytes() else {
        return Err(bad());
    };
    let pre = match pre {
        b'a' => SyncPre::Any,
        b'f' => SyncPre::Full,
        b'e' => SyncPre::Empty,
        _ => return Err(bad()),
    };
    let post = match post {
        b'u' => SyncPost::Unchanged,
        b'f' => SyncPost::SetFull,
        b'e' => SyncPost::SetEmpty,
        _ => return Err(bad()),
    };
    Ok((pre, post))
}

fn arity_err(line: usize, mnemonic: &str, expected: &'static str, got: usize) -> AsmError {
    err(
        line,
        AsmErrorKind::WrongArity {
            mnemonic: mnemonic.to_ascii_lowercase(),
            expected,
            got,
        },
    )
}

/// A branch target (`tok` trimmed): a label, or `@N` for index `N`.
fn branch_target(line: usize, tok: &str, symbols: &BTreeMap<String, u32>) -> Result<u32, AsmError> {
    let body = tok.strip_prefix('@').unwrap_or(tok);
    if let Ok(idx) = body.parse::<u32>() {
        if tok.starts_with('@') {
            return Ok(idx);
        }
    }
    symbols
        .get(body)
        .copied()
        .ok_or_else(|| err(line, AsmErrorKind::UndefinedLabel(body.to_owned())))
}

/// Longest mnemonic (`mrestart`), the size of the lowercasing buffer.
const MAX_MNEMONIC: usize = 8;

/// Operands any fixed-arity mnemonic takes at most (`setptr`, `fmadd`).
const MAX_OPERANDS: usize = 4;

/// Parse one operation; `text` is trimmed and non-empty.
#[allow(clippy::too_many_lines)]
fn parse_op(
    line: usize,
    text: &str,
    symbols: &BTreeMap<String, u32>,
) -> Result<ParsedOp, AsmError> {
    let (head, operands) = text.split_at(text.find(char::is_whitespace).unwrap_or(text.len()));
    let (mnemonic, suffix) = match split_at_byte(head, b'.') {
        Some((m, s)) => (m, Some(s)),
        None => (head, None),
    };
    let mut buf = [0u8; MAX_MNEMONIC];
    let lower: &[u8] = match buf.get_mut(..mnemonic.len()) {
        Some(lower) => {
            lower.copy_from_slice(mnemonic.as_bytes());
            lower.make_ascii_lowercase();
            lower
        }
        // Longer than every mnemonic: matches none.
        None => mnemonic.as_bytes(),
    };
    // The operands, split at commas and trimmed: the first few kept,
    // all counted (`empty` re-splits `operands` for the rest).
    let operands = trim(operands);
    let mut args = [""; MAX_OPERANDS];
    let mut n = 0;
    if !operands.is_empty() {
        for arg in pieces(operands, b',') {
            if let Some(slot) = args.get_mut(n) {
                *slot = arg;
            }
            n += 1;
        }
    }

    let arity = |k: usize| {
        if n == k {
            Ok(())
        } else {
            Err(arity_err(line, mnemonic, ["0", "1", "2", "3", "4"][k], n))
        }
    };
    let src = |i: usize| parse_src(line, args[i], symbols);
    let dst = |i: usize| parse_dst(line, args[i]);
    let reg = |i: usize| parse_reg_checked(line, args[i]);
    // The three-operand ALU and compare forms: `a, b, dst`.
    let abd = || -> Result<(Src, Src, Dst), AsmError> {
        arity(3)?;
        Ok((src(0)?, src(1)?, dst(2)?))
    };
    let int_alu = |kind| abd().map(|(a, b, dst)| ParsedOp::Int(IntOp::Alu { kind, a, b, dst }));
    let int_cmp = |kind| abd().map(|(a, b, dst)| ParsedOp::Int(IntOp::Cmp { kind, a, b, dst }));
    let fp_alu = |kind| abd().map(|(a, b, dst)| ParsedOp::Fp(FpOp::Alu { kind, a, b, dst }));
    let fp_cmp = |kind| abd().map(|(a, b, dst)| ParsedOp::Fp(FpOp::Cmp { kind, a, b, dst }));

    let op = match lower {
        b"add" => int_alu(AluKind::Add)?,
        b"sub" => int_alu(AluKind::Sub)?,
        b"mul" => int_alu(AluKind::Mul)?,
        b"div" => int_alu(AluKind::Div)?,
        b"and" => int_alu(AluKind::And)?,
        b"or" => int_alu(AluKind::Or)?,
        b"xor" => int_alu(AluKind::Xor)?,
        b"shl" => int_alu(AluKind::Shl)?,
        b"shr" => int_alu(AluKind::Shr)?,
        b"sra" => int_alu(AluKind::Sra)?,
        b"eq" => int_cmp(CmpKind::Eq)?,
        b"ne" => int_cmp(CmpKind::Ne)?,
        b"lt" => int_cmp(CmpKind::Lt)?,
        b"le" => int_cmp(CmpKind::Le)?,
        b"gt" => int_cmp(CmpKind::Gt)?,
        b"ge" => int_cmp(CmpKind::Ge)?,
        b"fadd" => fp_alu(FpKind::Add)?,
        b"fsub" => fp_alu(FpKind::Sub)?,
        b"fmul" => fp_alu(FpKind::Mul)?,
        b"fdiv" => fp_alu(FpKind::Div)?,
        b"feq" => fp_cmp(CmpKind::Eq)?,
        b"fne" => fp_cmp(CmpKind::Ne)?,
        b"flt" => fp_cmp(CmpKind::Lt)?,
        b"fle" => fp_cmp(CmpKind::Le)?,
        b"fgt" => fp_cmp(CmpKind::Gt)?,
        b"fge" => fp_cmp(CmpKind::Ge)?,
        b"mov" | b"imm" => {
            arity(2)?;
            ParsedOp::Int(IntOp::Mov {
                src: src(0)?,
                dst: dst(1)?,
            })
        }
        b"lea" => {
            arity(3)?;
            ParsedOp::Int(IntOp::Lea {
                base: reg(0)?,
                offset: src(1)?,
                dst: dst(2)?,
            })
        }
        b"setptr" => {
            arity(4)?;
            ParsedOp::Int(IntOp::SetPtr {
                perm: src(0)?,
                log2_len: src(1)?,
                addr: src(2)?,
                dst: dst(3)?,
            })
        }
        b"br" => {
            arity(1)?;
            ParsedOp::Int(IntOp::Branch {
                cond: BranchCond::Always,
                target: branch_target(line, args[0], symbols)?,
            })
        }
        b"brt" | b"brf" => {
            arity(2)?;
            let reg = reg(0)?;
            let target = branch_target(line, args[1], symbols)?;
            let cond = if lower == b"brt" {
                BranchCond::IfTrue(reg)
            } else {
                BranchCond::IfFalse(reg)
            };
            ParsedOp::Int(IntOp::Branch { cond, target })
        }
        b"jmp" => {
            arity(1)?;
            ParsedOp::Int(IntOp::JmpReg { target: reg(0)? })
        }
        b"empty" => {
            if n == 0 {
                return Err(arity_err(line, mnemonic, "1+", n));
            }
            let regs = pieces(operands, b',')
                .map(|a| parse_reg_checked(line, a))
                .collect::<Result<Vec<_>, _>>()?;
            ParsedOp::AnyEmpty(regs)
        }
        b"wrreg" => {
            arity(2)?;
            ParsedOp::Int(IntOp::WrReg {
                addr: src(0)?,
                value: src(1)?,
            })
        }
        b"gprobe" => {
            arity(2)?;
            ParsedOp::Int(IntOp::GProbe {
                va: src(0)?,
                dst: dst(1)?,
            })
        }
        b"tlbwr" => {
            arity(1)?;
            ParsedOp::Int(IntOp::TlbWr { entry_ptr: reg(0)? })
        }
        b"mrestart" => {
            arity(3)?;
            ParsedOp::Int(IntOp::MRestart {
                desc: reg(0)?,
                vaddr: reg(1)?,
                data: reg(2)?,
            })
        }
        b"nodeid" => {
            arity(1)?;
            ParsedOp::Int(IntOp::NodeId { dst: dst(0)? })
        }
        b"halt" => {
            arity(0)?;
            ParsedOp::Int(IntOp::Halt)
        }
        b"nop" => {
            arity(0)?;
            ParsedOp::Int(IntOp::Nop)
        }
        b"fnop" => {
            arity(0)?;
            ParsedOp::Fp(FpOp::Nop)
        }
        b"ld" => {
            arity(2)?;
            let (pre, post) = parse_sync_suffix(line, suffix)?;
            let (base, offset) = parse_addr(line, args[0])?;
            ParsedOp::Mem(MemOp::Load {
                base,
                offset,
                dst: dst(1)?,
                pre,
                post,
            })
        }
        b"st" => {
            arity(2)?;
            let (pre, post) = parse_sync_suffix(line, suffix)?;
            let (base, offset) = parse_addr(line, args[1])?;
            ParsedOp::Mem(MemOp::Store {
                src: src(0)?,
                base,
                offset,
                pre,
                post,
            })
        }
        b"send" => {
            arity(3)?;
            let priority = match suffix {
                None | Some("p0") => Priority::P0,
                Some("p1") => Priority::P1,
                Some(other) => return Err(err(line, AsmErrorKind::BadOperand(other.to_owned()))),
            };
            let Src::Imm(len) = src(2)? else {
                return Err(err(line, AsmErrorKind::BadOperand(args[2].to_owned())));
            };
            let len = u8::try_from(len)
                .ok()
                .filter(|l| *l <= 7)
                .ok_or_else(|| err(line, AsmErrorKind::BadImmediate(args[2].to_owned())))?;
            ParsedOp::Mem(MemOp::Send {
                dest: reg(0)?,
                dip: reg(1)?,
                len,
                priority,
            })
        }
        b"fmadd" => {
            arity(4)?;
            ParsedOp::Fp(FpOp::Madd {
                a: src(0)?,
                b: src(1)?,
                c: src(2)?,
                dst: dst(3)?,
            })
        }
        b"fmov" => {
            arity(2)?;
            ParsedOp::Fp(FpOp::Mov {
                src: src(0)?,
                dst: dst(1)?,
            })
        }
        b"itof" => {
            arity(2)?;
            ParsedOp::Fp(FpOp::Itof {
                src: src(0)?,
                dst: dst(1)?,
            })
        }
        b"ftoi" => {
            arity(2)?;
            ParsedOp::Fp(FpOp::Ftoi {
                src: src(0)?,
                dst: dst(1)?,
            })
        }
        _ => {
            let name = mnemonic.to_ascii_lowercase();
            return Err(err(line, AsmErrorKind::UnknownMnemonic(name)));
        }
    };
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_program() {
        let p =
            assemble("start:\n  add r1, #2, r1\n  eq r1, #2, gcc1\n  brt gcc1, start\n  halt\n")
                .unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.entry("start"), Some(0));
        assert_eq!(
            p.instrs()[2].int_op,
            Some(IntOp::Branch {
                cond: BranchCond::IfTrue(Reg::Gcc(1)),
                target: 0
            })
        );
    }

    #[test]
    fn label_on_same_line_and_comments() {
        let p = assemble("loop: add r1, #1, r1 ; inc\n br loop // again\n").unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.entry("loop"), Some(0));
    }

    #[test]
    fn three_wide_instruction() {
        let p = assemble("sub r1, r2, r3 | ld [r4+#1], r5 | fadd f1, f2, f3\n").unwrap();
        assert_eq!(p.len(), 1);
        let i = &p.instrs()[0];
        assert!(i.int_op.is_some());
        assert!(matches!(i.mem_op, Some(MemSlotOp::Mem(MemOp::Load { .. }))));
        assert!(i.fp_op.is_some());
    }

    #[test]
    fn two_int_ops_use_memory_unit() {
        let p = assemble("add r1, r2, r3 | sub r4, r5, r6\n").unwrap();
        let i = &p.instrs()[0];
        assert!(matches!(
            i.mem_op,
            Some(MemSlotOp::Int(IntOp::Alu {
                kind: AluKind::Sub,
                ..
            }))
        ));
    }

    #[test]
    fn three_int_ops_rejected() {
        let e = assemble("add r1, r2, r3 | sub r4, r5, r6 | and r1, r2, r3\n").unwrap_err();
        assert!(matches!(e.kind, AsmErrorKind::TooManyOps(_)));
    }

    #[test]
    fn sync_suffixes() {
        let p = assemble("ld.fe [r1], r2\n st.ef r2, [r3+#4]\n").unwrap();
        match &p.instrs()[0].mem_op {
            Some(MemSlotOp::Mem(MemOp::Load { pre, post, .. })) => {
                assert_eq!(*pre, SyncPre::Full);
                assert_eq!(*post, SyncPost::SetEmpty);
            }
            other => panic!("unexpected: {other:?}"),
        }
        match &p.instrs()[1].mem_op {
            Some(MemSlotOp::Mem(MemOp::Store {
                pre, post, offset, ..
            })) => {
                assert_eq!(*pre, SyncPre::Empty);
                assert_eq!(*post, SyncPost::SetFull);
                assert_eq!(*offset, 4);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn negative_offset_and_hex_imm() {
        let p = assemble("ld [r1-#2], r2\n mov #0x10, r3\n mov #-7, r4\n").unwrap();
        match &p.instrs()[0].mem_op {
            Some(MemSlotOp::Mem(MemOp::Load { offset, .. })) => assert_eq!(*offset, -2),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(
            p.instrs()[1].int_op,
            Some(IntOp::Mov {
                src: Src::Imm(16),
                dst: Dst::Local(Reg::Int(3))
            })
        );
        assert_eq!(
            p.instrs()[2].int_op,
            Some(IntOp::Mov {
                src: Src::Imm(-7),
                dst: Dst::Local(Reg::Int(4))
            })
        );
    }

    #[test]
    fn remote_destination() {
        let p = assemble("add r1, r2, h3.r4\n").unwrap();
        assert_eq!(
            p.instrs()[0].int_op,
            Some(IntOp::Alu {
                kind: AluKind::Add,
                a: Src::Reg(Reg::Int(1)),
                b: Src::Reg(Reg::Int(2)),
                dst: Dst::Remote {
                    cluster: 3,
                    reg: Reg::Int(4)
                },
            })
        );
        assert!(assemble("add r1, r2, h4.r4\n").is_err());
    }

    #[test]
    fn send_forms() {
        let p = assemble("send r1, r2, #3\n send.p1 r1, r2, #0\n").unwrap();
        match &p.instrs()[1].mem_op {
            Some(MemSlotOp::Mem(MemOp::Send { priority, len, .. })) => {
                assert_eq!(*priority, Priority::P1);
                assert_eq!(*len, 0);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(assemble("send r1, r2, #8\n").is_err());
        assert!(assemble("send r1, r2, r3\n").is_err());
    }

    #[test]
    fn label_immediates() {
        let p = assemble("mov @end, r1\n halt\nend: nop\n").unwrap();
        assert_eq!(
            p.instrs()[0].int_op,
            Some(IntOp::Mov {
                src: Src::Imm(2),
                dst: Dst::Local(Reg::Int(1))
            })
        );
    }

    #[test]
    fn error_cases() {
        assert!(matches!(
            assemble("frobnicate r1\n").unwrap_err().kind,
            AsmErrorKind::UnknownMnemonic(_)
        ));
        assert!(matches!(
            assemble("add r1, r2\n").unwrap_err().kind,
            AsmErrorKind::WrongArity { .. }
        ));
        assert!(matches!(
            assemble("br nowhere\n").unwrap_err().kind,
            AsmErrorKind::UndefinedLabel(_)
        ));
        assert!(matches!(
            assemble("x: nop\nx: nop\n").unwrap_err().kind,
            AsmErrorKind::DuplicateLabel(_)
        ));
        assert!(matches!(
            assemble("add r1, r2, r99\n").unwrap_err().kind,
            AsmErrorKind::RegisterRange(_)
        ));
        assert!(matches!(
            assemble("mov r1, rnet\n").unwrap_err().kind,
            AsmErrorKind::BadDestination(_)
        ));
        let e = assemble("nop\nbogus r1\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn queue_sources_allowed() {
        let p = assemble("mov rnet, r1\n jmp rnet\n mov evq, r2\n").unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn display_round_trip() {
        let src = "\
start:
    add r1, #2, r2 | ld [r5+#3], r6 | fmul f1, f2, f3
    eq r2, #2, gcc1
    brf gcc1, start
    st.ef r2, [r5]
    send r1, r2, #2
    empty r7, f4
    mov rnet, r1 | fadd f1, f1, h2.f2
    halt
";
        let p1 = assemble(src).unwrap();
        let printed = p1.to_string();
        let p2 = assemble(&printed).unwrap();
        assert_eq!(p1, p2, "printed form:\n{printed}");
    }
}
