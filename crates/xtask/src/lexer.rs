//! A minimal Rust lexer for the lint pass.
//!
//! The offline build environment has no `syn`, so the lint rules run over a
//! hand-rolled token stream instead of a full AST. The lexer understands
//! exactly as much Rust as the rules need to avoid false positives:
//!
//! * line comments (`//`, `///`, `//!`) and nested block comments, captured
//!   separately so waiver comments (`// ntv:allow(..): ..`) can be matched;
//! * string, raw-string, byte-string and char literals (so `"thread_rng"`
//!   inside a message is not a violation) and the char-vs-lifetime split;
//! * identifiers, numeric literals (including `1.0e6` and `0..n` without
//!   swallowing the range operator), and single-character punctuation.
//!
//! Everything else — the actual pattern matching — lives in `rules.rs`.

/// One lexed token with its source position (1-based line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// The kinds of token the lint rules distinguish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// String / char / numeric literal. Numeric literals carry their source
    /// text (the dataflow layer needs to tell `1.0` from `1`, and to match
    /// `.0` field projections); string/char literals carry an empty string —
    /// their content is deliberately discarded so message text can never
    /// trip a rule.
    Literal(String),
}

impl Token {
    /// The identifier text, if this token is an identifier.
    #[must_use]
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// The literal source text, if this token is a (numeric) literal.
    #[must_use]
    pub fn literal(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Literal(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is a numeric literal with float shape: a decimal
    /// point, an exponent, or an explicit `f32`/`f64` suffix.
    #[must_use]
    pub fn is_float_literal(&self) -> bool {
        let Some(text) = self.literal() else {
            return false;
        };
        let Some(first) = text.chars().next() else {
            return false;
        };
        if !first.is_ascii_digit() {
            return false;
        }
        if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
            return false;
        }
        // An integer suffix settles the type even though `usize`/`isize`
        // contain the letter `e` (the exponent check below must not see it).
        const INT_SUFFIXES: [&str; 12] = [
            "usize", "isize", "u128", "i128", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
        ];
        if INT_SUFFIXES.iter().any(|s| text.ends_with(s)) {
            return false;
        }
        text.contains('.')
            || text.contains('e')
            || text.contains('E')
            || text.ends_with("f32")
            || text.ends_with("f64")
    }

    /// Whether this token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// A comment with its source line (the line the comment *starts* on).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text including its `//` / `/*` markers.
    pub text: String,
}

/// Result of lexing one file.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// All non-comment tokens, in source order.
    pub tokens: Vec<Token>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

/// Lex `source` into tokens and comments.
///
/// The lexer is total: malformed input (e.g. an unterminated string) never
/// panics, it simply ends the current token at end-of-file. That matters
/// because the lint pass must be able to run over arbitrary in-progress code.
#[must_use]
pub fn lex(source: &str) -> LexedFile {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        out: LexedFile::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: LexedFile,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Advance one char, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn run(mut self) -> LexedFile {
        while let Some(c) = self.peek(0) {
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                'r' | 'b' if self.starts_raw_or_byte_literal() => self.raw_or_byte_literal(),
                '\'' => self.char_or_lifetime(),
                c if c.is_alphabetic() || c == '_' => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                _ => {
                    let line = self.line;
                    let c = match self.bump() {
                        Some(c) => c,
                        None => break,
                    };
                    self.out.tokens.push(Token {
                        kind: TokenKind::Punct(c),
                        line,
                    });
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment { line, text });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.out.comments.push(Comment { line, text });
    }

    fn string_literal(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.out.tokens.push(Token {
            kind: TokenKind::Literal(String::new()),
            line,
        });
    }

    /// Does the cursor sit on `r"`, `r#`, `b"`, `b'`, `br"`, or `br#`?
    fn starts_raw_or_byte_literal(&self) -> bool {
        matches!(
            (self.peek(0), self.peek(1), self.peek(2)),
            (Some('r'), Some('"' | '#'), _)
                | (Some('b'), Some('"' | '\''), _)
                | (Some('b'), Some('r'), Some('"' | '#'))
        )
    }

    fn raw_or_byte_literal(&mut self) {
        let line = self.line;
        // Consume the prefix letters.
        while matches!(self.peek(0), Some('r' | 'b')) {
            self.bump();
        }
        if self.peek(0) == Some('\'') {
            // Byte char literal b'x'.
            self.bump();
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
        } else {
            // Raw (byte) string: count leading #, match them at the close.
            let mut hashes = 0usize;
            while self.peek(0) == Some('#') {
                hashes += 1;
                self.bump();
            }
            if self.peek(0) != Some('"') {
                // `r#ident` — a raw identifier, not a raw string.
                self.ident();
                return;
            }
            self.bump(); // opening quote
            'outer: while let Some(c) = self.bump() {
                if c == '"' {
                    for i in 0..hashes {
                        if self.peek(i) != Some('#') {
                            continue 'outer;
                        }
                    }
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
        }
        self.out.tokens.push(Token {
            kind: TokenKind::Literal(String::new()),
            line,
        });
    }

    /// `'a` (lifetime) vs `'x'` / `'\n'` (char literal).
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let next = self.peek(1);
        let after = self.peek(2);
        let is_lifetime =
            matches!(next, Some(c) if c.is_alphabetic() || c == '_') && after != Some('\'');
        self.bump(); // the quote
        if is_lifetime {
            while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
                self.bump();
            }
            // Lifetimes carry no lint signal; drop them.
        } else {
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.out.tokens.push(Token {
                kind: TokenKind::Literal(String::new()),
                line,
            });
        }
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
            if let Some(c) = self.bump() {
                text.push(c);
            }
        }
        self.out.tokens.push(Token {
            kind: TokenKind::Ident(text),
            line,
        });
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        // Digits plus underscores, type suffixes (`1u64`), hex (`0xff`), and
        // exponents (`1e-6`). A `.` joins the number only when followed by a
        // digit, so `0..n` and `x.iter()` keep their punctuation.
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                // `1e-6` / `1E+9`: pull the sign in with the exponent.
                let took_exponent = (c == 'e' || c == 'E')
                    && matches!(self.peek(1), Some('+' | '-'))
                    && matches!(self.peek(2), Some(d) if d.is_ascii_digit());
                self.bump();
                if took_exponent {
                    self.bump();
                }
            } else if c == '.' && matches!(self.peek(1), Some(d) if d.is_ascii_digit()) {
                self.bump();
            } else {
                break;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.out.tokens.push(Token {
            kind: TokenKind::Literal(text),
            line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r#"
            // thread_rng in a comment
            /* Instant::now in a block /* nested */ comment */
            let x = "thread_rng in a string";
            let r#type = 1;
        "#;
        let ids = idents(src);
        assert!(!ids.contains(&"thread_rng".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        // Raw identifiers survive as identifiers.
        assert!(ids.contains(&"type".to_string()));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"unwrap() inside"#; after"###;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"after".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } let c = 'y'; done";
        let ids = idents(src);
        assert!(ids.contains(&"done".to_string()));
        assert!(!ids.contains(&"y".to_string()));
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let toks = lex("0..n; 1.0e6; 1e-6; x.unwrap()");
        let ids: Vec<_> = toks.tokens.iter().filter_map(|t| t.ident()).collect();
        assert_eq!(ids, vec!["n", "x", "unwrap"]);
        // `0..n` must produce two dot puncts.
        let dots = toks.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 3, "{:?}", toks.tokens);
    }

    #[test]
    fn line_numbers_are_tracked() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let out = lex("let a = 1; // ntv:allow(panic-path): trailing\n// standalone\nlet b = 2;");
        assert_eq!(out.comments.len(), 2);
        assert_eq!(out.comments[0].line, 1);
        assert!(out.comments[0].text.contains("ntv:allow"));
        assert_eq!(out.comments[1].line, 2);
    }
}
