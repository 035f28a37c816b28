//! Workspace-native static analysis for the Iustitia repo: the checks a
//! compiler cannot make.
//!
//! `cargo run -p xtask -- lint` runs the interprocedural analyses
//! L008–L010, built on a hand-rolled parser and call graph (see
//! [`parser`], [`callgraph`], [`analyses`]), from the roots in [`roots`],
//! and applies the waivers of [`lints`]. The library
//! target exists so the fixture integration tests can drive the parser
//! and analyses directly; the `xtask` binary is the CLI front end.

pub mod analyses;
pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod roots;
