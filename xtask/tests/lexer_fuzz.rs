//! Property tests: the lexer and the code view built from it run over
//! every workspace file on every lint invocation and over raw fixture
//! bytes — they must never panic, whatever soup they are fed, and the
//! code view must keep every column where the raw line has it.

use proptest::prelude::*;

use xtask::lexer::lex;
use xtask::lint::{FileKind, SourceFile};

/// The lexer's hard cases: quotes, comment delimiters, escaped char
/// literals, braces, and the `#[cfg(test)] mod` shape the code view
/// tracks.
const ALPHABET: [&str; 20] = [
    "\"",
    "'",
    "r#\"",
    "\"#",
    "/*",
    "*/",
    "//",
    "\\",
    "\n",
    "b'",
    "::",
    "ident ",
    "'\\n'",
    "'\\''",
    "'\\\\'",
    "b\"",
    "{",
    "}",
    "#[cfg(test)]\nmod t ",
    "lint: allow(unwrap)",
];

fn soup(picks: &[usize]) -> String {
    picks.iter().map(|&i| ALPHABET[i]).collect()
}

/// `SourceFile::from_source` does not panic, gives one `code` line and
/// one `in_tests` flag per raw line, and each `code` char is the raw
/// char in the same column or a space (never past the raw line's end).
fn check_code_view(src: &str) {
    let sf = SourceFile::from_source("crates/x/src/lib.rs", FileKind::Library, src);
    prop_assert_eq!(sf.code.len(), sf.raw.len());
    prop_assert_eq!(sf.in_tests.len(), sf.raw.len());
    for (line, (code, raw)) in sf.code.iter().zip(&sf.raw).enumerate() {
        let raw: Vec<char> = raw.chars().collect();
        prop_assert!(
            code.chars().count() <= raw.len(),
            "line {line}: code {code:?} runs past raw {raw:?}"
        );
        for (col, c) in code.chars().enumerate() {
            prop_assert!(
                c == ' ' || raw.get(col) == Some(&c),
                "line {line} col {col}: code {code:?} vs raw {raw:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup (lossily decoded, as the engine would see a
    /// file with invalid UTF-8 replaced) lexes without panicking, and
    /// token line numbers never exceed the line count of the input.
    #[test]
    fn lexer_never_panics_on_byte_soup(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let lexed = lex(&src);
        let lines = src.lines().count() + 1;
        for t in &lexed.tokens {
            prop_assert!(t.line < lines + 1, "line {} out of range", t.line);
        }
    }

    /// Structured soup drawn from the delimiter alphabet.
    #[test]
    fn lexer_never_panics_on_delimiter_soup(picks in proptest::collection::vec(0usize..20, 0..64)) {
        let _ = lex(&soup(&picks));
    }

    #[test]
    fn code_view_keeps_columns_on_byte_soup(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        check_code_view(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn code_view_keeps_columns_on_delimiter_soup(picks in proptest::collection::vec(0usize..20, 0..64)) {
        check_code_view(&soup(&picks));
    }
}
