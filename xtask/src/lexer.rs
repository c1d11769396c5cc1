//! A small hand-rolled Rust lexer: the static-analysis engine's only
//! front end.
//!
//! [`lex`] produces a flat token stream with line numbers — enough for
//! item-level parsing and token-pattern scans, deliberately far short
//! of a real Rust grammar — and the extent of every literal and
//! comment, from which [`crate::lint::SourceFile`] builds its blanked
//! code lines and reads its suppression markers. The lexer must
//! *never* panic: it is run over arbitrary byte soup by a property
//! test, and over every workspace file on every lint invocation.
//! Unknown or malformed input degrades to `Tok::Punct` / best-effort
//! literals, never to an error.

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`fn`, `HashMap`, `self`, ...).
    Ident(String),
    /// A lifetime (`'a`) — distinguished from char literals.
    Lifetime(String),
    /// A string/char/byte literal. Its text is never scanned for code
    /// patterns; its [`Span`] says where it sits.
    Literal,
    /// A numeric literal, suffix included (`1_000u64`, `0.25`).
    Number(String),
    /// `::` — path separator, kept fused so path scans are easy.
    PathSep,
    /// `->` — kept fused for signature scans.
    Arrow,
    /// Any other single punctuation character.
    Punct(char),
}

/// A token with its 0-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 0-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    #[must_use]
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// `true` if this token is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.tok, Tok::Ident(i) if i == s)
    }

    /// `true` if this token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        matches!(&self.tok, Tok::Punct(p) if *p == c)
    }
}

/// What a [`Span`] covers: source text that is not code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A string, raw string, byte string or char literal, prefix and
    /// delimiters included.
    Literal,
    /// A `//` comment (doc comments too), up to the end of its line.
    LineComment,
    /// A `/* .. */` comment, nested ones included.
    BlockComment,
}

/// Where one literal or comment sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Literal or which kind of comment.
    pub kind: SpanKind,
    /// 0-based line of its first char.
    pub line: usize,
    /// Char offset of its first char in the source.
    pub start: usize,
    /// Char offset one past its last char.
    pub end: usize,
}

/// A lexed file: the code tokens, and the literals and comments.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Tokens in source order; comments are not among them.
    pub tokens: Vec<Token>,
    /// Every literal and comment, in source order. A literal also has
    /// its [`Tok::Literal`] token.
    pub spans: Vec<Span>,
}

/// What one step of the lexer found.
enum Lexeme {
    /// Whitespace.
    Blank,
    /// A token that is not a literal.
    Code(Tok),
    /// A literal: a token and a span.
    Literal,
    /// A comment: a span only.
    Comment(SpanKind),
}

/// Lexes `src`. Comments, doc comments included, become spans but not
/// tokens (item docs are not analysis input). Never panics.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut line = 0usize;
    let mut i = 0usize;
    while i < chars.len() {
        let (lexeme, end) = next_lexeme(&chars, i);
        let span = |kind| Span {
            kind,
            line,
            start: i,
            end,
        };
        match lexeme {
            Lexeme::Blank => {}
            Lexeme::Code(tok) => out.tokens.push(Token { tok, line }),
            Lexeme::Literal => {
                out.tokens.push(Token {
                    tok: Tok::Literal,
                    line,
                });
                out.spans.push(span(SpanKind::Literal));
            }
            Lexeme::Comment(kind) => out.spans.push(span(kind)),
        }
        line += chars[i..end].iter().filter(|&&c| c == '\n').count();
        i = end;
    }
    out
}

/// The lexeme starting at `i < chars.len()`, and the index just past
/// it (always greater than `i`, at most `chars.len()`).
fn next_lexeme(chars: &[char], i: usize) -> (Lexeme, usize) {
    let n = chars.len();
    let next = chars.get(i + 1).copied();
    match chars[i] {
        c if c.is_whitespace() => (Lexeme::Blank, i + 1),
        '/' if next == Some('/') => {
            let end = chars[i..]
                .iter()
                .position(|&c| c == '\n')
                .map_or(n, |p| i + p);
            (Lexeme::Comment(SpanKind::LineComment), end)
        }
        '/' if next == Some('*') => {
            let mut depth = 1u32;
            let mut j = i + 2;
            while j < n && depth > 0 {
                match (chars[j], chars.get(j + 1)) {
                    ('/', Some('*')) => {
                        depth += 1;
                        j += 2;
                    }
                    ('*', Some('/')) => {
                        depth -= 1;
                        j += 2;
                    }
                    _ => j += 1,
                }
            }
            (Lexeme::Comment(SpanKind::BlockComment), j)
        }
        '"' => (Lexeme::Literal, string_end(chars, i)),
        // A byte string is a string with a prefix: escapes still apply.
        'b' if next == Some('"') => (Lexeme::Literal, string_end(chars, i + 1)),
        '\'' => char_or_lifetime(chars, i),
        c if c.is_alphabetic() || c == '_' => match raw_string_opener(chars, i) {
            Some((open, hashes)) => (Lexeme::Literal, raw_string_end(chars, open, hashes)),
            None => {
                let end = ident_end(chars, i);
                (
                    Lexeme::Code(Tok::Ident(chars[i..end].iter().collect())),
                    end,
                )
            }
        },
        c if c.is_ascii_digit() => {
            let mut j = i;
            let mut seen_dot = false;
            while j < n {
                let d = chars[j];
                if d.is_alphanumeric() || d == '_' {
                    j += 1;
                } else if d == '.' && !seen_dot && j + 1 < n && chars[j + 1].is_ascii_digit() {
                    // `1.5` but not `1..x` or `1.method()`.
                    seen_dot = true;
                    j += 1;
                } else {
                    break;
                }
            }
            (Lexeme::Code(Tok::Number(chars[i..j].iter().collect())), j)
        }
        ':' if next == Some(':') => (Lexeme::Code(Tok::PathSep), i + 2),
        '-' if next == Some('>') => (Lexeme::Code(Tok::Arrow), i + 2),
        c => (Lexeme::Code(Tok::Punct(c)), i + 1),
    }
}

/// Index past the identifier starting at `i`.
fn ident_end(chars: &[char], i: usize) -> usize {
    chars[i..]
        .iter()
        .position(|&c| !(c.is_alphanumeric() || c == '_'))
        .map_or(chars.len(), |p| i + p)
}

/// Index past the escaped string whose opening `"` is at `open`.
fn string_end(chars: &[char], open: usize) -> usize {
    let mut j = open + 1;
    while j < chars.len() {
        match chars[j] {
            '"' => return j + 1,
            '\\' => j += 2,
            _ => j += 1,
        }
    }
    chars.len()
}

/// If a raw string (`r"`, `r#"`, `br#"`, ...) starts at `i`: the index
/// of its opening `"` and the number of `#` around it.
fn raw_string_opener(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let r = if chars[i] == 'b' { i + 1 } else { i };
    if chars.get(r) != Some(&'r') {
        return None;
    }
    let hashes = chars[r + 1..].iter().take_while(|&&c| c == '#').count();
    let open = r + 1 + hashes;
    (chars.get(open) == Some(&'"')).then_some((open, hashes))
}

/// Index past the raw string opened at `open`: its closing `"` carries
/// as many `#` as the opener.
fn raw_string_end(chars: &[char], open: usize, hashes: usize) -> usize {
    (open + 1..chars.len())
        .find(|&k| {
            chars[k] == '"'
                && chars
                    .get(k + 1..k + 1 + hashes)
                    .is_some_and(|h| h.iter().all(|&c| c == '#'))
        })
        .map_or(chars.len(), |k| k + 1 + hashes)
}

/// A char literal or a lifetime, starting at the `'` at `i`.
fn char_or_lifetime(chars: &[char], i: usize) -> (Lexeme, usize) {
    let n = chars.len();
    match chars.get(i + 1) {
        Some(&c) if c.is_alphabetic() || c == '_' => {
            // A lifetime is `'` + ident not followed by a closing quote;
            // `'x'` is a one-char literal.
            let j = ident_end(chars, i + 1);
            if j == i + 2 && chars.get(j) == Some(&'\'') {
                (Lexeme::Literal, j + 1)
            } else {
                let name = chars[i + 1..j].iter().collect();
                (Lexeme::Code(Tok::Lifetime(name)), j)
            }
        }
        Some('\\') => {
            // Escaped char literal: the escaped char itself may be a
            // quote (`'\''`), so the closing quote is looked for after it.
            let mut j = (i + 3).min(n);
            while j < n && chars[j] != '\'' && chars[j] != '\n' {
                j += 1;
            }
            let end = if chars.get(j) == Some(&'\'') {
                j + 1
            } else {
                j
            };
            (Lexeme::Literal, end)
        }
        _ => {
            // '…' with arbitrary content, or a stray quote.
            let close = (i + 1..n.min(i + 5)).find(|&j| chars[j] == '\'' || chars[j] == '\n');
            match close {
                Some(j) if chars[j] == '\'' => (Lexeme::Literal, j + 1),
                _ => (Lexeme::Code(Tok::Punct('\'')), i + 1),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    /// The source text of each span, with its kind.
    fn spans(src: &str) -> Vec<(SpanKind, String)> {
        let chars: Vec<char> = src.chars().collect();
        lex(src)
            .spans
            .iter()
            .map(|s| (s.kind, chars[s.start..s.end].iter().collect()))
            .collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let toks = lex("fn f() {\n  x.iter();\n}\n").tokens;
        assert!(toks[0].is_ident("fn"));
        assert_eq!(toks[0].line, 0);
        let iter = toks.iter().find(|t| t.is_ident("iter")).unwrap();
        assert_eq!(iter.line, 1);
    }

    #[test]
    fn comments_and_strings_do_not_leak_code() {
        let src = "// x.iter()\n/* y.keys() */\nlet s = \"z.values()\";\n";
        let ids = idents(src);
        assert!(!ids.contains(&"iter".to_string()));
        assert!(!ids.contains(&"keys".to_string()));
        assert!(!ids.contains(&"values".to_string()));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn raw_strings_and_nested_comments() {
        let src = "let a = r#\"he \"quoted\" ha\"#; /* a /* b */ c */ let b = 1;\n";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b"]);
    }

    #[test]
    fn byte_strings_keep_their_escapes() {
        // `b"..."` is not raw: its `\"` does not end it.
        let ids = idents("let a = b\"{\\\"k\\\": 1}\"; let b = 1;\n");
        assert_eq!(ids, vec!["let", "a", "let", "b"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }").tokens;
        assert!(toks
            .iter()
            .any(|t| matches!(&t.tok, Tok::Lifetime(l) if l == "a")));
        assert_eq!(toks.iter().filter(|t| t.tok == Tok::Literal).count(), 2);
        // An escaped quote does not close its own char literal.
        assert!(idents("['\\'', 'a']").is_empty());
    }

    #[test]
    fn spans_cover_every_literal_and_comment() {
        let src = "/// doc\nlet s = \"a\\\"b\"; // note\n\
                   let r = br#\"x\"#; /* c\n */ let c = '\\'';\n";
        assert_eq!(
            spans(src),
            vec![
                (SpanKind::LineComment, "/// doc".to_string()),
                (SpanKind::Literal, "\"a\\\"b\"".to_string()),
                (SpanKind::LineComment, "// note".to_string()),
                (SpanKind::Literal, "br#\"x\"#".to_string()),
                (SpanKind::BlockComment, "/* c\n */".to_string()),
                (SpanKind::Literal, "'\\''".to_string()),
            ]
        );
        let lines: Vec<usize> = lex(src).spans.iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![0, 1, 1, 2, 2, 3]);
    }

    #[test]
    fn path_sep_and_arrow_fused() {
        let toks = lex("fn f() -> std::time::Instant {}").tokens;
        assert!(toks.iter().any(|t| t.tok == Tok::Arrow));
        assert_eq!(toks.iter().filter(|t| t.tok == Tok::PathSep).count(), 2);
    }

    #[test]
    fn numbers_with_suffixes_and_floats() {
        let toks = lex("let x = 1_000u64 + 0.25 + 1.method();").tokens;
        assert!(toks
            .iter()
            .any(|t| matches!(&t.tok, Tok::Number(s) if s == "1_000u64")));
        assert!(toks
            .iter()
            .any(|t| matches!(&t.tok, Tok::Number(s) if s == "0.25")));
        // `1.method()` lexes 1 as an integer, then `.method`.
        assert!(toks.iter().any(|t| t.is_ident("method")));
    }

    #[test]
    fn never_panics_on_garbage() {
        for src in [
            "", "\"", "'", "r#\"", "/*", "\\", "'''", "r###", "0.", "\u{0}", "b'", "'a", "\"\\",
            "'\\", "b\"\\", "br",
        ] {
            let _ = lex(src);
        }
    }
}
