//! An honest token scanner for Rust source.
//!
//! The lints in this crate are lexical, so the one thing the scanner
//! must get right is *what is code and what is not*: an `unwrap` inside
//! a string literal, a raw string, a char literal, or a comment must
//! never surface as an identifier, and a `"` inside a comment must not
//! open a string. The scanner handles line comments, nested block
//! comments, strings with escapes, raw (byte) strings with arbitrary
//! `#` fences, byte strings, char literals vs lifetimes, raw
//! identifiers, and numeric literals (including `1.5e-3` and the
//! `0..n` range ambiguity). It is deliberately *not* a parser: output
//! is a flat token stream with line numbers, which is all the lint
//! catalog needs.
//!
//! Proptests in `tests/lexer_props.rs` drive randomly interleaved
//! fragments of all of the above through the scanner and assert that
//! exactly the planted identifiers — and none of the decoys buried in
//! literals and comments — come back out.

/// One lexical token. Comment and string contents are retained:
/// comments carry the `// SAFETY:` / `// analysis:allow` annotations,
/// and string contents are what the wire-stability lint reads frame
/// tags from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (raw identifiers come back without `r#`).
    Ident(String),
    /// `'a` in type/generics position.
    Lifetime(String),
    /// `// ...` including the slashes, excluding the newline.
    LineComment(String),
    /// `/* ... */` including delimiters; nesting respected.
    BlockComment(String),
    /// String or byte-string literal content (escapes left as written).
    Str(String),
    /// Raw string or raw byte-string literal content.
    RawStr(String),
    /// Char or byte literal, e.g. `'x'`, `b'\n'`.
    CharLit,
    /// Numeric literal text, e.g. `42`, `0x1F`, `1.5e-3`.
    Num(String),
    /// Any other single character: `{`, `.`, `!`, `$`, ...
    Punct(char),
}

/// A token plus the 1-based line its first character sits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }

    /// Comment text if this token is a line or block comment.
    pub fn comment(&self) -> Option<&str> {
        match &self.tok {
            Tok::LineComment(s) | Tok::BlockComment(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, tok: Tok, line: u32) {
        self.out.push(Token { tok, line });
    }

    /// Slice helper that respects UTF-8: used only for ranges that
    /// start and end on ASCII boundaries, which every delimiter here is.
    fn text(&self, start: usize, end: usize) -> String {
        String::from_utf8_lossy(&self.src[start..end]).into_owned()
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        while let Some(c) = self.peek() {
            if c == b'\n' {
                break;
            }
            self.bump();
        }
        let text = self.text(start, self.pos);
        self.push(Tok::LineComment(text), line);
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: tolerate, stop at EOF
            }
        }
        let text = self.text(start, self.pos);
        self.push(Tok::BlockComment(text), line);
    }

    /// Cooked string body after the opening quote has been consumed.
    /// A backslash always swallows the next character, which covers
    /// `\"`, `\\`, `\n`, `\x41` and `\u{...}` alike (none of the
    /// skipped characters can be an unescaped quote).
    fn cooked_string(&mut self, line: u32) {
        let start = self.pos;
        loop {
            match self.bump() {
                Some(b'"') => {
                    let text = self.text(start, self.pos - 1);
                    self.push(Tok::Str(text), line);
                    return;
                }
                Some(b'\\') => {
                    self.bump();
                }
                Some(_) => {}
                None => {
                    let text = self.text(start, self.pos);
                    self.push(Tok::Str(text), line);
                    return;
                }
            }
        }
    }

    /// Raw string at `r`/`br` with `self.pos` on the first `#` or `"`.
    /// Consumes `#...#"` ... `"#...#` with a matching fence length.
    fn raw_string(&mut self, line: u32) {
        let mut fence = 0usize;
        while self.peek() == Some(b'#') {
            fence += 1;
            self.bump();
        }
        self.bump(); // opening '"'
        let start = self.pos;
        loop {
            match self.bump() {
                Some(b'"') => {
                    let mut matched = 0usize;
                    while matched < fence && self.peek() == Some(b'#') {
                        matched += 1;
                        self.bump();
                    }
                    if matched == fence {
                        let end = self.pos - 1 - fence;
                        let text = self.text(start, end);
                        self.push(Tok::RawStr(text), line);
                        return;
                    }
                }
                Some(_) => {}
                None => {
                    let text = self.text(start, self.pos);
                    self.push(Tok::RawStr(text), line);
                    return;
                }
            }
        }
    }

    /// `'` has been seen (not consumed): decide lifetime vs char
    /// literal. `'a'` is a char; `'a` followed by anything but a
    /// closing quote is a lifetime; `'\..'` is always a char.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // opening '
        match self.peek() {
            Some(b'\\') => {
                // Escaped char literal: consume escape then scan to
                // the closing quote ('\u{7FFF}' spans several chars).
                self.bump();
                self.bump();
                while let Some(c) = self.bump() {
                    if c == b'\'' {
                        break;
                    }
                }
                self.push(Tok::CharLit, line);
            }
            Some(c) if is_ident_start(c as char) || !c.is_ascii() => {
                if self.peek_at(1) == Some(b'\'') && c.is_ascii() {
                    self.bump();
                    self.bump();
                    self.push(Tok::CharLit, line);
                } else if !c.is_ascii() {
                    // Non-ASCII char literal like 'é': find the quote.
                    while let Some(ch) = self.bump() {
                        if ch == b'\'' {
                            break;
                        }
                    }
                    self.push(Tok::CharLit, line);
                } else {
                    let start = self.pos;
                    while self.peek().is_some_and(|c| is_ident_continue(c as char)) {
                        self.bump();
                    }
                    let name = self.text(start, self.pos);
                    self.push(Tok::Lifetime(name), line);
                }
            }
            Some(_) => {
                // Char literal of a single non-ident char: ' ' , '.' ...
                self.bump();
                self.bump(); // closing '
                self.push(Tok::CharLit, line);
            }
            None => self.push(Tok::Punct('\''), line),
        }
    }

    fn number(&mut self) {
        let start = self.pos;
        let line = self.line;
        let mut prev = 0u8;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                prev = c;
                self.bump();
            } else if c == b'.'
                && self.peek_at(1).is_some_and(|d| d.is_ascii_digit())
                && prev != b'.'
            {
                // `1.5` continues the number; `0..n` does not (the
                // second dot is peeked as a digit test on `.`, which
                // fails, so `0..` stops after `0`).
                prev = c;
                self.bump();
            } else if (c == b'+' || c == b'-') && (prev == b'e' || prev == b'E') {
                // Exponent sign inside `1.5e-3`.
                prev = c;
                self.bump();
            } else {
                break;
            }
        }
        let text = self.text(start, self.pos);
        self.push(Tok::Num(text), line);
    }

    fn ident(&mut self) {
        let start = self.pos;
        let line = self.line;
        while self
            .peek()
            .is_some_and(|c| is_ident_continue(c as char) || !c.is_ascii())
        {
            self.bump();
        }
        let name = self.text(start, self.pos);

        // String-literal prefixes: the ident chars may introduce a
        // literal instead of standing alone.
        match (name.as_str(), self.peek()) {
            ("r" | "br" | "b", Some(b'"')) => {
                if name == "r" || name == "br" {
                    self.raw_string(line);
                } else {
                    self.bump();
                    self.cooked_string(line);
                }
                return;
            }
            ("r" | "br", Some(b'#')) => {
                // Raw string `r#"..."#` — or raw identifier `r#foo`.
                let mut ahead = 0usize;
                while self.peek_at(ahead) == Some(b'#') {
                    ahead += 1;
                }
                if self.peek_at(ahead) == Some(b'"') {
                    self.raw_string(line);
                    return;
                }
                if name == "r" && self.peek_at(1).is_some_and(|c| is_ident_start(c as char)) {
                    self.bump(); // '#'
                    let rstart = self.pos;
                    while self.peek().is_some_and(|c| is_ident_continue(c as char)) {
                        self.bump();
                    }
                    let raw = self.text(rstart, self.pos);
                    self.push(Tok::Ident(raw), line);
                    return;
                }
            }
            ("b", Some(b'\'')) => {
                // Byte literal b'x'.
                self.char_or_lifetime();
                // char_or_lifetime pushed CharLit (b'…' can't be a
                // lifetime); nothing else to do.
                return;
            }
            _ => {}
        }
        self.push(Tok::Ident(name), line);
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek() {
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek_at(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek_at(1) == Some(b'*') => self.block_comment(),
                b'"' => {
                    let line = self.line;
                    self.bump();
                    self.cooked_string(line);
                }
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                c if is_ident_start(c as char) || !c.is_ascii() => self.ident(),
                _ => {
                    let line = self.line;
                    self.bump();
                    self.push(Tok::Punct(c as char), line);
                }
            }
        }
        self.out
    }
}

/// Lex `src` into a flat token stream with 1-based line numbers.
/// Never panics: malformed input (unterminated literals, stray bytes)
/// degrades to best-effort tokens rather than an error, because lints
/// on a file that does not even lex are worthless next to `rustc`'s
/// own diagnostics.
pub fn lex(src: &str) -> Vec<Token> {
    Scanner {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            let x = "unwrap // not a comment";
            // in_comment unwrap()
            /* block unwrap /* nested */ still */
            let y = r#"raw "quoted" unwrap"#;
            real_ident.method();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(ids.contains(&"method".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"in_comment".to_string()));
        assert!(!ids.contains(&"nested".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str, c: char) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| matches!(t.tok, Tok::Lifetime(_)))
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars = toks.iter().filter(|t| t.tok == Tok::CharLit).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        let toks = lex("for i in 0..10 { a[i] = 1.5e-3; }");
        let nums: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Num(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e-3"]);
    }

    #[test]
    fn line_numbers_are_one_based_and_accurate() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn raw_fences_of_any_length_close_correctly() {
        let toks = lex(r####"let s = r###"has "# and "## inside"###; tail"####);
        assert!(toks
            .iter()
            .any(|t| matches!(&t.tok, Tok::RawStr(s) if s.contains("\"##"))));
        assert!(toks.iter().any(|t| t.ident() == Some("tail")));
    }

    #[test]
    fn byte_strings_and_raw_idents() {
        let toks = lex(r#"let m = b"SMAX"; let k = r#fn; br"raw bytes""#);
        assert!(toks
            .iter()
            .any(|t| matches!(&t.tok, Tok::Str(s) if s == "SMAX")));
        assert!(toks.iter().any(|t| t.ident() == Some("fn")));
        assert!(toks
            .iter()
            .any(|t| matches!(&t.tok, Tok::RawStr(s) if s == "raw bytes")));
    }
}
