//! A small hand-rolled Rust lexer.
//!
//! `evop-lint` must build offline with no external parser (`syn` is not in
//! `vendor/`), so this module tokenises Rust source directly. It is not a
//! full lexer — it only needs to be *sound* for rule matching, which means
//! getting the hard parts right so that rule patterns never fire inside
//! text that is not code:
//!
//! * line comments (`//`, `///`, `//!`) — also where doc-test examples
//!   live, which is why `.unwrap()` in a doc example is never flagged;
//! * block comments `/* … */` **with nesting**, as Rust specifies;
//! * string literals with escapes, including multi-line strings;
//! * raw strings `r"…"`, `r#"…"#` (arbitrary hash depth) and their byte
//!   variants `br#"…"#`, whose bodies may contain `//`, quotes, anything;
//! * raw identifiers `r#type`;
//! * char literals `'a'`, `'\n'`, `'\u{1F600}'` vs lifetimes `'a`;
//! * numbers (so `1.0` is one float token, not `1` `.` `0`).
//!
//! Comments are skipped rather than emitted, with one exception: an
//! `evop-lint: allow(rule-id) -- reason` marker inside a comment is parsed
//! into a [`Directive`] so findings can be suppressed at a single site
//! (see `crates/bench/src/scenario/experiments.rs` for the canonical use).

use std::fmt;

/// What a token is. Rules match on kind + text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (including raw identifiers, sans `r#`).
    Ident,
    /// A lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// A string literal of any flavour (normal/raw/byte); text is empty.
    Str,
    /// A character or byte literal; text is empty.
    Char,
    /// An integer literal.
    Int,
    /// A floating-point literal (has a fractional part, exponent, or an
    /// `f32`/`f64` suffix).
    Float,
    /// Punctuation. Single characters, except `==` and `!=` which are
    /// joined so the float-comparison rule can match them directly.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token's kind.
    pub kind: TokenKind,
    /// 1-based line on which the token starts.
    pub line: u32,
    /// Token text for `Ident`, `Lifetime`, `Int`, `Float` and `Punct`;
    /// empty for string/char literals (rules never need their contents).
    pub text: String,
}

impl Token {
    fn new(kind: TokenKind, line: u32, text: impl Into<String>) -> Token {
        Token { kind, line, text: text.into() }
    }

    /// `true` when this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// `true` when this token is the punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == p
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TokenKind::Str => write!(f, "\"…\""),
            TokenKind::Char => write!(f, "'…'"),
            _ => write!(f, "{}", self.text),
        }
    }
}

/// A scoped in-source suppression parsed from a comment:
/// `evop-lint: allow(rule-id) -- reason`.
///
/// The directive suppresses matching findings on its own line and on the
/// line directly below it (so it can trail a statement or sit above one).
/// A directive must carry a non-empty reason after `--`; the engine turns
/// reason-less or unused directives into findings of their own, keeping
/// the allowlist honest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// The rule id being allowed, e.g. `det-wallclock`.
    pub rule: String,
    /// The human justification after `--` (may be empty: that is itself
    /// reported by the engine).
    pub reason: String,
}

/// The output of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
    /// All `evop-lint: allow(...)` directives found in comments.
    pub directives: Vec<Directive>,
}

/// Tokenises `src`. Never fails: unterminated constructs simply consume
/// to end of input (the compiler is the authority on validity; the linter
/// only needs to stay sound on code that compiles).
pub fn lex(src: &str) -> Lexed {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer { bytes: src.as_bytes(), src, pos: 0, line: 1, out: Lexed::default() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking newlines.
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn run(mut self) -> Lexed {
        // A shebang (`#!...` at the very start of the file, as cargo-script
        // files carry) is not Rust tokens; skip its line. `#![attr]` inner
        // attributes are real code and must still lex.
        if self.src.starts_with("#!") && self.peek_at(2) != Some(b'[') {
            while let Some(b) = self.peek() {
                if b == b'\n' {
                    break;
                }
                self.bump();
            }
        }
        while let Some(b) = self.peek() {
            let line = self.line;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek_at(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek_at(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                b'r' | b'b' => self.raw_prefixed_or_ident(),
                b'0'..=b'9' => self.number(),
                _ if is_ident_start(b) => self.ident(),
                _ => {
                    self.bump();
                    // Join `==` and `!=` into one token; everything else
                    // stays a single character.
                    let text = if (b == b'=' || b == b'!') && self.peek() == Some(b'=') {
                        self.bump();
                        if b == b'=' {
                            "=="
                        } else {
                            "!="
                        }
                    } else {
                        &self.src[self.pos - 1..self.pos]
                    };
                    self.out.tokens.push(Token::new(TokenKind::Punct, line, text));
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        if let Some(d) = scan_directive(&self.src[start..self.pos], line) {
            self.out.directives.push(d);
        }
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some(b'*'), Some(b'/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: consume to EOF
            }
        }
        if let Some(d) = scan_directive(&self.src[start..self.pos], line) {
            self.out.directives.push(d);
        }
    }

    fn string(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump(); // the escaped byte ('"', '\\', 'n', …)
                }
                b'"' => break,
                _ => {}
            }
        }
        self.out.tokens.push(Token::new(TokenKind::Str, line, ""));
    }

    /// `'a` (lifetime) vs `'a'` / `'\n'` / `'\u{…}'` (char literal).
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        match self.peek() {
            // Escape: definitely a char literal.
            Some(b'\\') => {
                self.bump();
                self.bump(); // escaped byte; `\u{…}` handled by the loop below
                while let Some(b) = self.peek() {
                    if b == b'\'' {
                        self.bump();
                        break;
                    }
                    self.bump();
                }
                self.out.tokens.push(Token::new(TokenKind::Char, line, ""));
            }
            Some(b) if is_ident_start(b) => {
                // `'x'` is a char; `'x` followed by anything but `'` is a
                // lifetime (`'static`, `'a`).
                let start = self.pos;
                while self.peek().map(is_ident_continue).unwrap_or(false) {
                    self.bump();
                }
                if self.peek() == Some(b'\'') {
                    self.bump();
                    self.out.tokens.push(Token::new(TokenKind::Char, line, ""));
                } else {
                    let text = self.src[start..self.pos].to_owned();
                    self.out.tokens.push(Token::new(TokenKind::Lifetime, line, text));
                }
            }
            // `'('`, `' '`, `'6'` …: a one-byte char literal.
            Some(_) => {
                self.bump();
                if self.peek() == Some(b'\'') {
                    self.bump();
                }
                self.out.tokens.push(Token::new(TokenKind::Char, line, ""));
            }
            None => {}
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `r#ident`, `b'…'`, `b"…"`, `br#"…"#`,
    /// or a plain identifier starting with `r`/`b`.
    fn raw_prefixed_or_ident(&mut self) {
        let b0 = self.peek().unwrap_or(0);
        let mut ahead = 1;
        if b0 == b'b' && self.peek_at(1) == Some(b'r') {
            ahead = 2; // br…
        }
        // Count hashes after the prefix.
        let mut hashes = 0usize;
        while self.peek_at(ahead + hashes) == Some(b'#') {
            hashes += 1;
        }
        let next = self.peek_at(ahead + hashes);

        let is_raw_str = (b0 == b'r' || ahead == 2) && next == Some(b'"');
        let is_raw_ident =
            b0 == b'r' && ahead == 1 && hashes == 1 && next.map(is_ident_start).unwrap_or(false);
        let is_byte_char = b0 == b'b' && ahead == 1 && hashes == 0 && next == Some(b'\'');
        let is_byte_str = b0 == b'b' && ahead == 1 && hashes == 0 && next == Some(b'"');

        if is_raw_str {
            let line = self.line;
            for _ in 0..ahead + hashes + 1 {
                self.bump(); // prefix, hashes, opening quote
            }
            // Body runs to `"` followed by `hashes` hashes. No escapes.
            'body: while let Some(b) = self.bump() {
                if b == b'"' {
                    for i in 0..hashes {
                        if self.peek_at(i) != Some(b'#') {
                            continue 'body;
                        }
                    }
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
            self.out.tokens.push(Token::new(TokenKind::Str, line, ""));
        } else if is_raw_ident {
            self.bump(); // r
            self.bump(); // #
            self.ident();
        } else if is_byte_char {
            self.bump(); // b
            self.char_or_lifetime();
        } else if is_byte_str {
            self.bump(); // b
            self.string();
        } else {
            self.ident();
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        let mut float = false;
        while self.peek().map(|b| b.is_ascii_digit() || b == b'_').unwrap_or(false) {
            self.bump();
        }
        // Fraction: only when the dot is followed by a digit, so `1.max(2)`
        // and ranges `0..n` lex as an integer then punctuation.
        if self.peek() == Some(b'.') && self.peek_at(1).map(|b| b.is_ascii_digit()).unwrap_or(false)
        {
            float = true;
            self.bump();
            while self.peek().map(|b| b.is_ascii_digit() || b == b'_').unwrap_or(false) {
                self.bump();
            }
        }
        // Exponent.
        if matches!(self.peek(), Some(b'e' | b'E'))
            && matches!(
                (self.peek_at(1), self.peek_at(2)),
                (Some(b'0'..=b'9'), _) | (Some(b'+' | b'-'), Some(b'0'..=b'9'))
            )
        {
            float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            while self.peek().map(|b| b.is_ascii_digit() || b == b'_').unwrap_or(false) {
                self.bump();
            }
        }
        // Suffix (`u32`, `f64`, hex digits of `0x…`, …).
        let suffix_start = self.pos;
        while self.peek().map(is_ident_continue).unwrap_or(false) {
            self.bump();
        }
        let suffix = &self.src[suffix_start..self.pos];
        if suffix == "f32" || suffix == "f64" {
            float = true;
        }
        let kind = if float { TokenKind::Float } else { TokenKind::Int };
        self.out.tokens.push(Token::new(kind, line, &self.src[start..self.pos]));
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while self.peek().map(is_ident_continue).unwrap_or(false) {
            self.bump();
        }
        if self.pos == start {
            // Defensive: caller guaranteed an ident start; never loop.
            self.bump();
        }
        self.out.tokens.push(Token::new(TokenKind::Ident, line, &self.src[start..self.pos]));
    }
}

/// Parses `evop-lint: allow(rule) -- reason` out of a comment body.
///
/// The marker must be the first thing in the comment (after the comment
/// sigils), so prose that merely *mentions* the syntax — like this doc
/// comment — never parses as a directive.
fn scan_directive(comment: &str, line: u32) -> Option<Directive> {
    let body = comment.trim_start_matches(['/', '*', '!']).trim_start();
    let rest = body.strip_prefix("evop-lint:")?.trim_start();
    let args = rest.strip_prefix("allow(")?;
    let close = args.find(')')?;
    let rule = args[..close].trim().to_owned();
    let after = &args[close + 1..];
    let reason = match after.find("--") {
        Some(dash) => after[dash + 2..].trim().trim_end_matches("*/").trim().to_owned(),
        None => String::new(),
    };
    Some(Directive { line, rule, reason })
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}
