//! `xtask` — workspace-native static analysis for the Iustitia repo.
//!
//! Run as `cargo run -p xtask -- lint`. Exits 0 when the workspace is
//! clean, 1 with `file:line: [Lnnn] message` diagnostics otherwise.
//! Two tiers run under the one command, with one waiver pass over both:
//! the per-token lints L005–L006 (see [`lints`]) and the
//! interprocedural analyses L008–L010 built on the call graph (see
//! [`analyses`]). The local checks clippy ships run under `cargo clippy`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::lints;
use xtask::roots::ROOTS;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n");
            print!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
xtask — workspace-native static analysis

USAGE:
    cargo run -p xtask -- lint [--list] [--root <dir>]

COMMANDS:
    lint          run every project lint over the workspace
    lint --list   print the lint table and exit

L005-L006 are per-token lints; L008-L010 are interprocedural analyses
driven by the roots declared in crates/xtask/src/roots.rs. The retired
L001-L004, L007 and L011 are clippy lints: run `cargo clippy`.

Waive a finding with an inline justification on the same or the
preceding line:  // lint: allow(L008) — <reason>
A waiver that no finding uses is an error.
";

fn lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                for (id, description) in lints::LINTS {
                    println!("{id}  {description}");
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match iter.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("xtask: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask: unknown lint flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);

    match lints::run(&root, &ROOTS) {
        Ok(violations) if violations.is_empty() => {
            println!("xtask lint: workspace clean ({} lints)", lints::LINTS.len());
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for violation in &violations {
                println!("{violation}");
            }
            eprintln!("xtask lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: error analyzing {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}
