//! The workspace's syntax-aware static-analysis engine.
//!
//! Dependency-free by design (the analyzer must never be broken by
//! the code it audits): a hand-rolled lexer ([`lexer`]), the one front
//! end, lexes each source file once; an item-level workspace model
//! ([`model`]) and the line-rule family ([`lint`]) read that one lex,
//! and the model-level passes plus reporting live in [`passes`].
//! [`verify`] lists the commands CI blocks on.
//!
//! The `xtask` binary drives it; integration tests run the passes
//! over fixture workspaces under `xtask/tests/fixtures/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod lint;
pub mod model;
pub mod passes;
pub mod verify;
