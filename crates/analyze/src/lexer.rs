//! A small hand-rolled Rust lexer: just enough to strip comments and
//! string/char literals so the rule engine can pattern-match on real
//! code tokens without being fooled by `"unsafe"` inside a string or
//! `HashMap` inside a doc comment.
//!
//! This is deliberately **not** a full Rust grammar (no `syn` — the
//! workspace vendors only the proptest shim). It handles the
//! lexical layer exactly: line comments, nested block comments, string
//! literals with escapes, raw strings with arbitrary `#` fences, byte
//! and byte-raw strings, char literals vs. lifetimes, numbers with
//! suffixes, and multi-byte UTF-8 in all of the above. Everything the
//! rules consume — token text, per-line comment text, per-line code
//! presence — comes out of one pass.

/// What a token is. String/char literals keep their raw source text so
/// rules can inspect e.g. format strings for `:p}` pointer formatting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `HashMap`, …).
    Ident,
    /// One punctuation character (`::` arrives as two `:` tokens).
    Punct,
    /// String literal (plain, raw, byte, byte-raw), text includes quotes.
    Str,
    /// Char literal, text includes quotes.
    Char,
    /// Numeric literal, including any suffix (`0xff`, `1.0e5`, `7u64`).
    Num,
    /// Lifetime (`'a`) — distinguished from char literals lexically.
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// How a whole source line classifies, for the adjacency rules
/// (`// SAFETY:` must sit *immediately* above its `unsafe`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    /// Nothing but whitespace.
    Blank,
    /// Comment text only (line, block, or doc comment), no code tokens.
    CommentOnly,
    /// Starts with `#` and carries no other statement — an attribute.
    AttrOnly,
    /// Anything else.
    Code,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All code tokens in source order.
    pub toks: Vec<Tok>,
    /// Per line (index = line-1): concatenated comment text on that
    /// line, empty if none. Block comments contribute to their start
    /// line only.
    pub line_comments: Vec<String>,
    /// Per line: classification (see [`LineKind`]).
    pub line_kinds: Vec<LineKind>,
}

impl Lexed {
    /// Comment text recorded for 1-based `line` ("" if none / out of range).
    #[must_use]
    pub fn comment_on(&self, line: u32) -> &str {
        (line as usize)
            .checked_sub(1)
            .and_then(|i| self.line_comments.get(i))
            .map_or("", String::as_str)
    }

    /// Classification of 1-based `line` (`Blank` if out of range).
    #[must_use]
    pub fn kind_of(&self, line: u32) -> LineKind {
        (line as usize)
            .checked_sub(1)
            .and_then(|i| self.line_kinds.get(i))
            .copied()
            .unwrap_or(LineKind::Blank)
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
    /// Lines that saw at least one code token.
    code_lines: Vec<bool>,
    /// Lines whose *first* non-blank content is a `#` attribute opener.
    attr_start_lines: Vec<bool>,
}

/// Lex `src` into tokens plus per-line comment/classification tables.
/// Total: never panics on any input (pinned by the property tests).
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let n_lines = src.lines().count().max(1);
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Lexed {
            toks: Vec::new(),
            line_comments: vec![String::new(); n_lines],
            line_kinds: vec![LineKind::Blank; n_lines],
        },
        code_lines: vec![false; n_lines],
        attr_start_lines: vec![false; n_lines],
    };
    lx.run();
    for i in 0..n_lines {
        lx.out.line_kinds[i] = if lx.attr_start_lines[i] {
            LineKind::AttrOnly
        } else if lx.code_lines[i] {
            LineKind::Code
        } else if !lx.out.line_comments[i].is_empty() {
            LineKind::CommentOnly
        } else {
            LineKind::Blank
        };
    }
    lx.out
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> u8 {
        self.src.get(self.pos + ahead).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        if self.pos >= self.src.len() {
            return 0; // never step past EOF (slices index with self.pos)
        }
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        b
    }

    fn mark_code(&mut self, line: u32) {
        if let Some(f) = self.code_lines.get_mut(line as usize - 1) {
            *f = true;
        }
    }

    fn push_comment(&mut self, line: u32, text: &str) {
        if let Some(c) = self.out.line_comments.get_mut(line as usize - 1) {
            if !c.is_empty() {
                c.push(' ');
            }
            c.push_str(text);
        }
    }

    fn push_tok(&mut self, kind: TokKind, text: String, line: u32) {
        self.mark_code(line);
        self.out.toks.push(Tok { kind, text, line });
    }

    fn run(&mut self) {
        while self.pos < self.src.len() {
            let b = self.peek(0);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => self.string(false),
                b'\'' => self.char_or_lifetime(),
                b'r' | b'b' => {
                    // Consumes either a (raw/byte) string or, when the
                    // lookahead says it is not one, a plain identifier.
                    self.raw_or_byte_string();
                }
                b'0'..=b'9' => self.number(),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
                b'#' => {
                    // An attribute opener makes the line AttrOnly iff no
                    // code token landed on it earlier.
                    let line = self.line;
                    let fresh = !self
                        .code_lines
                        .get(line as usize - 1)
                        .copied()
                        .unwrap_or(true);
                    self.push_tok(TokKind::Punct, "#".into(), line);
                    if fresh {
                        if let Some(f) = self.attr_start_lines.get_mut(line as usize - 1) {
                            *f = true;
                        }
                    }
                    self.bump();
                }
                _ => {
                    let line = self.line;
                    // Multi-byte UTF-8 in code position: consume the
                    // whole scalar as one punct so we never split it.
                    let len = utf8_len(b);
                    let text = self.take_bytes(len);
                    self.push_tok(TokKind::Punct, text, line);
                }
            }
        }
    }

    /// Take `len` bytes (bounded by EOF) as a lossy string.
    fn take_bytes(&mut self, len: usize) -> String {
        let start = self.pos;
        for _ in 0..len.min(self.src.len() - self.pos) {
            self.bump();
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        while self.pos < self.src.len() && self.peek(0) != b'\n' {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push_comment(line, &text);
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        self.bump();
        self.bump(); // consume "/*"
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.bump();
                self.bump();
            } else {
                self.bump();
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        // Attribute the whole comment to its start line; interior lines
        // stay Blank unless something else lands on them.
        self.push_comment(line, &text);
    }

    /// Lex a string body after the opening quote position; `raw` means
    /// backslash is a literal character (no escapes).
    fn string_body(&mut self, raw: bool, fence: usize) -> bool {
        // Returns true when terminated; leaves pos after the close.
        while self.pos < self.src.len() {
            let b = self.peek(0);
            if !raw && b == b'\\' {
                self.bump();
                self.bump();
                continue;
            }
            if b == b'"' {
                self.bump();
                if !raw {
                    return true;
                }
                // Raw string: need `fence` hashes after the quote.
                let mut seen = 0;
                while seen < fence && self.peek(0) == b'#' {
                    self.bump();
                    seen += 1;
                }
                if seen == fence {
                    return true;
                }
                continue;
            }
            self.bump();
        }
        false
    }

    fn string(&mut self, raw_prefixed: bool) {
        let line = self.line;
        let start = self.pos;
        if !raw_prefixed {
            self.bump(); // opening quote
            self.string_body(false, 0);
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push_tok(TokKind::Str, text, line);
    }

    /// At a `r`/`b` that might open `r"`, `r#"`, `b"`, `br#"`, `rb…` is
    /// not Rust. Returns true if a string was consumed.
    fn raw_or_byte_string(&mut self) -> bool {
        let line = self.line;
        let start = self.pos;
        let mut k = 0usize;
        let mut raw = false;
        match (self.peek(0), self.peek(1)) {
            (b'r', _) => {
                raw = true;
                k = 1;
            }
            (b'b', b'r') => {
                raw = true;
                k = 2;
            }
            (b'b', _) => k = 1,
            _ => {}
        }
        // Count the `#` fence for raw strings.
        let mut fence = 0usize;
        if raw {
            while self.peek(k + fence) == b'#' {
                fence += 1;
            }
        }
        if self.peek(k + fence) != b'"' || (!raw && fence > 0) {
            self.ident();
            return true; // consumed as an identifier instead
        }
        for _ in 0..(k + fence + 1) {
            self.bump(); // prefix + fence + opening quote
        }
        self.string_body(raw, fence);
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push_tok(TokKind::Str, text, line);
        true
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let start = self.pos;
        self.bump(); // the opening '
        let b = self.peek(0);
        let ident_start = b.is_ascii_alphabetic() || b == b'_';
        if ident_start && self.peek(1) != b'\'' {
            // Lifetime: consume the identifier, no closing quote.
            while {
                let c = self.peek(0);
                c.is_ascii_alphanumeric() || c == b'_'
            } {
                self.bump();
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            self.push_tok(TokKind::Lifetime, text, line);
            return;
        }
        // Char literal: handle escapes, consume through the closing '.
        if self.peek(0) == b'\\' {
            self.bump();
            self.bump();
            while self.pos < self.src.len() && self.peek(0) != b'\'' {
                self.bump(); // \u{1F600}
            }
            self.bump();
        } else {
            let len = utf8_len(self.peek(0));
            for _ in 0..len {
                self.bump();
            }
            if self.peek(0) == b'\'' {
                self.bump();
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push_tok(TokKind::Char, text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        loop {
            let b = self.peek(0);
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.bump();
            } else if b == b'.' && self.peek(1).is_ascii_digit() {
                self.bump(); // a fraction, not a `0..n` range
            } else {
                break;
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push_tok(TokKind::Num, text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while {
            let b = self.peek(0);
            b.is_ascii_alphanumeric() || b == b'_'
        } {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push_tok(TokKind::Ident, text, line);
    }
}

fn utf8_len(b: u8) -> usize {
    match b {
        0xF0..=0xFF => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_keywords() {
        let src = r##"
// unsafe HashMap in a comment
/* unsafe /* nested */ still comment */
let a = "unsafe { HashMap }";
let b = r#"more "unsafe" text"#;
let c = b"unsafe";
let d = 'u';
fn real() {}
"##;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()), "{ids:?}");
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"real".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; x }";
        let lexed = lex(src);
        let lifetimes: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3);
        let chars: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text, "'x'");
    }

    #[test]
    fn line_kinds_classify() {
        let src = "// SAFETY: fine\n#[cold]\nfn f() {} // trailing\n\n";
        let lexed = lex(src);
        assert_eq!(lexed.kind_of(1), LineKind::CommentOnly);
        assert_eq!(lexed.kind_of(2), LineKind::AttrOnly);
        assert_eq!(lexed.kind_of(3), LineKind::Code);
        assert_eq!(lexed.kind_of(4), LineKind::Blank);
        assert!(lexed.comment_on(1).contains("SAFETY:"));
        assert!(lexed.comment_on(3).contains("trailing"));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let src = "for i in 0..n { let x = 1.5e3; let y = 0xff_u64; }";
        let lexed = lex(src);
        let nums: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["0", "1.5e3", "0xff_u64"]);
    }

    #[test]
    fn raw_string_with_fences_terminates_correctly() {
        let src = r###"let x = r##"quote " and "# inside"##; fn after() {}"###;
        assert!(idents(src).contains(&"after".to_string()));
    }
}
