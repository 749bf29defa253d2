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
    let lines = preprocess(source);

    // Pass 1: collect labels.
    let mut symbols: BTreeMap<String, u32> = BTreeMap::new();
    let mut index: u32 = 0;
    for (lineno, text) in &lines {
        let (labels, rest) = split_labels(text);
        for label in labels {
            if symbols.insert(label.to_owned(), index).is_some() {
                return Err(err(*lineno, AsmErrorKind::DuplicateLabel(label.to_owned())));
            }
        }
        if !rest.trim().is_empty() {
            index += 1;
        }
    }

    // Pass 2: parse operations.
    let mut instrs = Vec::new();
    for (lineno, text) in &lines {
        let (_, rest) = split_labels(text);
        let rest = rest.trim();
        if rest.is_empty() {
            continue;
        }
        let mut instr = Instruction::empty();
        for op_text in rest.split('|') {
            let op_text = op_text.trim();
            if op_text.is_empty() {
                continue;
            }
            let parsed = parse_op(*lineno, op_text, &symbols)?;
            place_op(*lineno, parsed, &mut instr)?;
        }
        instrs.push(instr);
    }

    Ok(Program::from_parts(instrs, symbols))
}

/// Strip comments, drop blank lines, keep 1-based line numbers.
fn preprocess(source: &str) -> Vec<(usize, String)> {
    source
        .lines()
        .enumerate()
        .map(|(i, line)| {
            let mut s = line;
            if let Some(p) = s.find(';') {
                s = &s[..p];
            }
            if let Some(p) = s.find("//") {
                s = &s[..p];
            }
            (i + 1, s.trim().to_owned())
        })
        .filter(|(_, s)| !s.is_empty())
        .collect()
}

/// Split leading `label:` prefixes off a line.
fn split_labels(line: &str) -> (Vec<&str>, &str) {
    let mut labels = Vec::new();
    let mut rest = line.trim();
    while let Some(colon) = rest.find(':') {
        let candidate = rest[..colon].trim();
        if !candidate.is_empty()
            && candidate
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
            && candidate
                .chars()
                .next()
                .is_some_and(|c| !c.is_ascii_digit())
        {
            labels.push(candidate);
            rest = rest[colon + 1..].trim_start();
        } else {
            break;
        }
    }
    (labels, rest)
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
    let tok = tok.trim();
    let reg = if let Some(n) = tok.strip_prefix("gcc") {
        Reg::Gcc(n.parse().ok()?)
    } else if let Some(n) = tok.strip_prefix("mc") {
        Reg::Mc(n.parse().ok()?)
    } else if tok == "rnet" {
        Reg::NetIn
    } else if tok == "evq" {
        Reg::EvQ
    } else if let Some(n) = tok.strip_prefix('r') {
        Reg::Int(n.parse().ok()?)
    } else if let Some(n) = tok.strip_prefix('f') {
        Reg::Fp(n.parse().ok()?)
    } else {
        return None;
    };
    Some(reg)
}

fn parse_reg_checked(line: usize, tok: &str) -> Result<Reg, AsmError> {
    let r = parse_reg(tok).ok_or_else(|| err(line, AsmErrorKind::BadOperand(tok.to_owned())))?;
    if !r.is_valid() {
        return Err(err(line, AsmErrorKind::RegisterRange(tok.to_owned())));
    }
    Ok(r)
}

fn parse_imm_value(text: &str) -> Option<i64> {
    let text = text.trim();
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

fn parse_src(line: usize, tok: &str, symbols: &BTreeMap<String, u32>) -> Result<Src, AsmError> {
    let tok = tok.trim();
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

fn parse_dst(line: usize, tok: &str) -> Result<Dst, AsmError> {
    let tok = tok.trim();
    if let Some(rest) = tok.strip_prefix('h') {
        if let Some(dot) = rest.find('.') {
            if let Ok(cluster) = rest[..dot].parse::<u8>() {
                if cluster >= NUM_CLUSTERS {
                    return Err(err(line, AsmErrorKind::RegisterRange(tok.to_owned())));
                }
                let reg = parse_reg_checked(line, &rest[dot + 1..])?;
                return Ok(Dst::Remote { cluster, reg });
            }
        }
    }
    let reg = parse_reg_checked(line, tok)?;
    if reg.is_queue() {
        return Err(err(line, AsmErrorKind::BadDestination(tok.to_owned())));
    }
    Ok(Dst::Local(reg))
}

/// Parse a `[base]` / `[base+#off]` / `[base-#off]` memory operand.
fn parse_addr(line: usize, tok: &str) -> Result<(Reg, i32), AsmError> {
    let tok = tok.trim();
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(line, AsmErrorKind::BadOperand(tok.to_owned())))?
        .trim();
    let (base_text, offset) = if let Some(plus) = inner.find('+') {
        (
            &inner[..plus],
            parse_offset(line, &inner[plus + 1..], false)?,
        )
    } else if let Some(minus) = inner.find('-') {
        (
            &inner[..minus],
            parse_offset(line, &inner[minus + 1..], true)?,
        )
    } else {
        (inner, 0)
    };
    Ok((parse_reg_checked(line, base_text)?, offset))
}

fn parse_offset(line: usize, text: &str, negate: bool) -> Result<i32, AsmError> {
    let text = text.trim();
    let body = text
        .strip_prefix('#')
        .ok_or_else(|| err(line, AsmErrorKind::BadOperand(text.to_owned())))?;
    let v = parse_imm_value(body)
        .ok_or_else(|| err(line, AsmErrorKind::BadImmediate(text.to_owned())))?;
    let v = if negate { -v } else { v };
    i32::try_from(v).map_err(|_| err(line, AsmErrorKind::BadImmediate(text.to_owned())))
}

fn parse_sync_suffix(line: usize, suffix: &str) -> Result<(SyncPre, SyncPost), AsmError> {
    let bytes = suffix.as_bytes();
    if bytes.len() != 2 {
        return Err(err(line, AsmErrorKind::BadOperand(suffix.to_owned())));
    }
    let pre = match bytes[0] {
        b'a' => SyncPre::Any,
        b'f' => SyncPre::Full,
        b'e' => SyncPre::Empty,
        _ => return Err(err(line, AsmErrorKind::BadOperand(suffix.to_owned()))),
    };
    let post = match bytes[1] {
        b'u' => SyncPost::Unchanged,
        b'f' => SyncPost::SetFull,
        b'e' => SyncPost::SetEmpty,
        _ => return Err(err(line, AsmErrorKind::BadOperand(suffix.to_owned()))),
    };
    Ok((pre, post))
}

fn split_operands(text: &str) -> Vec<&str> {
    let text = text.trim();
    if text.is_empty() {
        Vec::new()
    } else {
        text.split(',').map(str::trim).collect()
    }
}

fn arity_err(line: usize, mnemonic: &str, expected: &'static str, got: usize) -> AsmError {
    err(
        line,
        AsmErrorKind::WrongArity {
            mnemonic: mnemonic.to_owned(),
            expected,
            got,
        },
    )
}

fn branch_target(line: usize, tok: &str, symbols: &BTreeMap<String, u32>) -> Result<u32, AsmError> {
    let tok = tok.trim();
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

#[allow(clippy::too_many_lines)]
fn parse_op(
    line: usize,
    text: &str,
    symbols: &BTreeMap<String, u32>,
) -> Result<ParsedOp, AsmError> {
    let text = text.trim();
    let (head, args_text) = match text.find(char::is_whitespace) {
        Some(p) => (&text[..p], &text[p..]),
        None => (text, ""),
    };
    let (mnemonic, suffix) = match head.find('.') {
        Some(p) => (&head[..p], Some(&head[p + 1..])),
        None => (head, None),
    };
    let mnemonic = mnemonic.to_ascii_lowercase();
    let args = split_operands(args_text);
    let n = args.len();

    let int_alu = |kind: AluKind| -> Result<ParsedOp, AsmError> {
        if n != 3 {
            return Err(arity_err(line, &mnemonic, "3", n));
        }
        Ok(ParsedOp::Int(IntOp::Alu {
            kind,
            a: parse_src(line, args[0], symbols)?,
            b: parse_src(line, args[1], symbols)?,
            dst: parse_dst(line, args[2])?,
        }))
    };
    let int_cmp = |kind: CmpKind| -> Result<ParsedOp, AsmError> {
        if n != 3 {
            return Err(arity_err(line, &mnemonic, "3", n));
        }
        Ok(ParsedOp::Int(IntOp::Cmp {
            kind,
            a: parse_src(line, args[0], symbols)?,
            b: parse_src(line, args[1], symbols)?,
            dst: parse_dst(line, args[2])?,
        }))
    };
    let fp_alu = |kind: FpKind| -> Result<ParsedOp, AsmError> {
        if n != 3 {
            return Err(arity_err(line, &mnemonic, "3", n));
        }
        Ok(ParsedOp::Fp(FpOp::Alu {
            kind,
            a: parse_src(line, args[0], symbols)?,
            b: parse_src(line, args[1], symbols)?,
            dst: parse_dst(line, args[2])?,
        }))
    };
    let fp_cmp = |kind: CmpKind| -> Result<ParsedOp, AsmError> {
        if n != 3 {
            return Err(arity_err(line, &mnemonic, "3", n));
        }
        Ok(ParsedOp::Fp(FpOp::Cmp {
            kind,
            a: parse_src(line, args[0], symbols)?,
            b: parse_src(line, args[1], symbols)?,
            dst: parse_dst(line, args[2])?,
        }))
    };

    match mnemonic.as_str() {
        "add" => int_alu(AluKind::Add),
        "sub" => int_alu(AluKind::Sub),
        "mul" => int_alu(AluKind::Mul),
        "div" => int_alu(AluKind::Div),
        "and" => int_alu(AluKind::And),
        "or" => int_alu(AluKind::Or),
        "xor" => int_alu(AluKind::Xor),
        "shl" => int_alu(AluKind::Shl),
        "shr" => int_alu(AluKind::Shr),
        "sra" => int_alu(AluKind::Sra),
        "eq" => int_cmp(CmpKind::Eq),
        "ne" => int_cmp(CmpKind::Ne),
        "lt" => int_cmp(CmpKind::Lt),
        "le" => int_cmp(CmpKind::Le),
        "gt" => int_cmp(CmpKind::Gt),
        "ge" => int_cmp(CmpKind::Ge),
        "mov" | "imm" => {
            if n != 2 {
                return Err(arity_err(line, &mnemonic, "2", n));
            }
            Ok(ParsedOp::Int(IntOp::Mov {
                src: parse_src(line, args[0], symbols)?,
                dst: parse_dst(line, args[1])?,
            }))
        }
        "lea" => {
            if n != 3 {
                return Err(arity_err(line, &mnemonic, "3", n));
            }
            Ok(ParsedOp::Int(IntOp::Lea {
                base: parse_reg_checked(line, args[0])?,
                offset: parse_src(line, args[1], symbols)?,
                dst: parse_dst(line, args[2])?,
            }))
        }
        "setptr" => {
            if n != 4 {
                return Err(arity_err(line, &mnemonic, "4", n));
            }
            Ok(ParsedOp::Int(IntOp::SetPtr {
                perm: parse_src(line, args[0], symbols)?,
                log2_len: parse_src(line, args[1], symbols)?,
                addr: parse_src(line, args[2], symbols)?,
                dst: parse_dst(line, args[3])?,
            }))
        }
        "br" => {
            if n != 1 {
                return Err(arity_err(line, &mnemonic, "1", n));
            }
            Ok(ParsedOp::Int(IntOp::Branch {
                cond: BranchCond::Always,
                target: branch_target(line, args[0], symbols)?,
            }))
        }
        "brt" | "brf" => {
            if n != 2 {
                return Err(arity_err(line, &mnemonic, "2", n));
            }
            let reg = parse_reg_checked(line, args[0])?;
            let target = branch_target(line, args[1], symbols)?;
            let cond = if mnemonic == "brt" {
                BranchCond::IfTrue(reg)
            } else {
                BranchCond::IfFalse(reg)
            };
            Ok(ParsedOp::Int(IntOp::Branch { cond, target }))
        }
        "jmp" => {
            if n != 1 {
                return Err(arity_err(line, &mnemonic, "1", n));
            }
            Ok(ParsedOp::Int(IntOp::JmpReg {
                target: parse_reg_checked(line, args[0])?,
            }))
        }
        "empty" => {
            if n == 0 {
                return Err(arity_err(line, &mnemonic, "1+", n));
            }
            let regs = args
                .iter()
                .map(|a| parse_reg_checked(line, a))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ParsedOp::AnyEmpty(regs))
        }
        "wrreg" => {
            if n != 2 {
                return Err(arity_err(line, &mnemonic, "2", n));
            }
            Ok(ParsedOp::Int(IntOp::WrReg {
                addr: parse_src(line, args[0], symbols)?,
                value: parse_src(line, args[1], symbols)?,
            }))
        }
        "gprobe" => {
            if n != 2 {
                return Err(arity_err(line, &mnemonic, "2", n));
            }
            Ok(ParsedOp::Int(IntOp::GProbe {
                va: parse_src(line, args[0], symbols)?,
                dst: parse_dst(line, args[1])?,
            }))
        }
        "tlbwr" => {
            if n != 1 {
                return Err(arity_err(line, &mnemonic, "1", n));
            }
            Ok(ParsedOp::Int(IntOp::TlbWr {
                entry_ptr: parse_reg_checked(line, args[0])?,
            }))
        }
        "mrestart" => {
            if n != 3 {
                return Err(arity_err(line, &mnemonic, "3", n));
            }
            Ok(ParsedOp::Int(IntOp::MRestart {
                desc: parse_reg_checked(line, args[0])?,
                vaddr: parse_reg_checked(line, args[1])?,
                data: parse_reg_checked(line, args[2])?,
            }))
        }
        "nodeid" => {
            if n != 1 {
                return Err(arity_err(line, &mnemonic, "1", n));
            }
            Ok(ParsedOp::Int(IntOp::NodeId {
                dst: parse_dst(line, args[0])?,
            }))
        }
        "halt" => {
            if n != 0 {
                return Err(arity_err(line, &mnemonic, "0", n));
            }
            Ok(ParsedOp::Int(IntOp::Halt))
        }
        "nop" => {
            if n != 0 {
                return Err(arity_err(line, &mnemonic, "0", n));
            }
            Ok(ParsedOp::Int(IntOp::Nop))
        }
        "fnop" => {
            if n != 0 {
                return Err(arity_err(line, &mnemonic, "0", n));
            }
            Ok(ParsedOp::Fp(FpOp::Nop))
        }
        "ld" => {
            if n != 2 {
                return Err(arity_err(line, &mnemonic, "2", n));
            }
            let (pre, post) = match suffix {
                Some(s) => parse_sync_suffix(line, s)?,
                None => (SyncPre::Any, SyncPost::Unchanged),
            };
            let (base, offset) = parse_addr(line, args[0])?;
            Ok(ParsedOp::Mem(MemOp::Load {
                base,
                offset,
                dst: parse_dst(line, args[1])?,
                pre,
                post,
            }))
        }
        "st" => {
            if n != 2 {
                return Err(arity_err(line, &mnemonic, "2", n));
            }
            let (pre, post) = match suffix {
                Some(s) => parse_sync_suffix(line, s)?,
                None => (SyncPre::Any, SyncPost::Unchanged),
            };
            let (base, offset) = parse_addr(line, args[1])?;
            Ok(ParsedOp::Mem(MemOp::Store {
                src: parse_src(line, args[0], symbols)?,
                base,
                offset,
                pre,
                post,
            }))
        }
        "send" => {
            if n != 3 {
                return Err(arity_err(line, &mnemonic, "3", n));
            }
            let priority = match suffix {
                None | Some("p0") => Priority::P0,
                Some("p1") => Priority::P1,
                Some(other) => return Err(err(line, AsmErrorKind::BadOperand(other.to_owned()))),
            };
            let len_src = parse_src(line, args[2], symbols)?;
            let Src::Imm(len) = len_src else {
                return Err(err(line, AsmErrorKind::BadOperand(args[2].to_owned())));
            };
            let len = u8::try_from(len)
                .ok()
                .filter(|l| *l <= 7)
                .ok_or_else(|| err(line, AsmErrorKind::BadImmediate(args[2].to_owned())))?;
            Ok(ParsedOp::Mem(MemOp::Send {
                dest: parse_reg_checked(line, args[0])?,
                dip: parse_reg_checked(line, args[1])?,
                len,
                priority,
            }))
        }
        "fadd" => fp_alu(FpKind::Add),
        "fsub" => fp_alu(FpKind::Sub),
        "fmul" => fp_alu(FpKind::Mul),
        "fdiv" => fp_alu(FpKind::Div),
        "feq" => fp_cmp(CmpKind::Eq),
        "fne" => fp_cmp(CmpKind::Ne),
        "flt" => fp_cmp(CmpKind::Lt),
        "fle" => fp_cmp(CmpKind::Le),
        "fgt" => fp_cmp(CmpKind::Gt),
        "fge" => fp_cmp(CmpKind::Ge),
        "fmadd" => {
            if n != 4 {
                return Err(arity_err(line, &mnemonic, "4", n));
            }
            Ok(ParsedOp::Fp(FpOp::Madd {
                a: parse_src(line, args[0], symbols)?,
                b: parse_src(line, args[1], symbols)?,
                c: parse_src(line, args[2], symbols)?,
                dst: parse_dst(line, args[3])?,
            }))
        }
        "fmov" => {
            if n != 2 {
                return Err(arity_err(line, &mnemonic, "2", n));
            }
            Ok(ParsedOp::Fp(FpOp::Mov {
                src: parse_src(line, args[0], symbols)?,
                dst: parse_dst(line, args[1])?,
            }))
        }
        "itof" => {
            if n != 2 {
                return Err(arity_err(line, &mnemonic, "2", n));
            }
            Ok(ParsedOp::Fp(FpOp::Itof {
                src: parse_src(line, args[0], symbols)?,
                dst: parse_dst(line, args[1])?,
            }))
        }
        "ftoi" => {
            if n != 2 {
                return Err(arity_err(line, &mnemonic, "2", n));
            }
            Ok(ParsedOp::Fp(FpOp::Ftoi {
                src: parse_src(line, args[0], symbols)?,
                dst: parse_dst(line, args[1])?,
            }))
        }
        other => Err(err(line, AsmErrorKind::UnknownMnemonic(other.to_owned()))),
    }
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
