//! The project lints, the waivers that suppress their findings, and
//! [`run`], which applies those waivers once over every finding.
//!
//! | id | check | scope |
//! |------|-------|-------|
//! | L008 | no panic site (panic!/unwrap/expect/`[]`/assert!) reachable from a declared hot-path root | whole workspace, interprocedural |
//! | L009 | no allocation (Vec/Box/String/format!/collect/…) reachable from a declared steady-state root | whole workspace, interprocedural |
//! | L010 | lock discipline: locks acquired in declared order, never re-acquired, never held across a channel send | `serve` library code |
//!
//! All three are interprocedural: [`crate::parser`] extracts
//! per-function events, [`crate::callgraph`] resolves calls across the
//! workspace, and [`crate::analyses`] walks reachability from the roots
//! declared in [`crate::roots`].
//!
//! "Library code" excludes `src/bin/`, `tests/`, `benches/`, and
//! `#[cfg(test)]` / `#[test]` regions inside library files.
//!
//! # Retired lints
//!
//! The local checks are the compiler's now. Seven are clippy lints,
//! enabled by attribute at the scopes they had here and run by CI's
//! `cargo clippy --workspace --all-targets -- -D warnings`; L005 is a
//! type. Their ids are not reused.
//!
//! | was | successor | enabled in |
//! |------|-------------|------------|
//! | L001 | `unwrap_used`, `expect_used` | `lib.rs` of `serve`/`core`/`entropy`/`ml`/`corpus`, outside `cfg(test)` |
//! | L002 | `cast_possible_truncation` | `serve/src/proto.rs` |
//! | L003 | `wildcard_enum_match_arm` | `serve/src/{proto,server}.rs` |
//! | L004 | `print_stdout`, `print_stderr` | as L001 |
//! | L005 | one generic `Metrics<C, H>` (and `ShardMetrics<C>`) declares every serve metric for both the live block and the snapshot; a field the wire walk does not list fails to build | `serve/src/metrics.rs` |
//! | L006 | `disallowed_methods` (`Vec::extend_from_slice`, in `crates/core/clippy.toml`; one `#[expect]` on the `staging` append) | `core/src/pipeline.rs`, outside `cfg(test)` |
//! | L007 | `disallowed_types` (`std::collections::HashMap`, in `crates/entropy/clippy.toml`) | `entropy` |
//! | L011 | `arithmetic_side_effects` | `serve/src/proto.rs`, `entropy/src/fastmap.rs` |
//!
//! Two are broader than the checks they replace:
//! `wildcard_enum_match_arm` rejects a `_ =>` arm over *every* enum, not
//! only `Request`/`Response`, and `arithmetic_side_effects` covers `-`,
//! `/` and `%` on every operand, not only `+`/`*` on lengths and
//! counters. An exception is an `#[expect(clippy::…, reason = "…")]`,
//! which warns — an error under `-D warnings` — once nothing fires.
//!
//! # Waivers
//!
//! A finding is waived by a comment on the same or the preceding line:
//!
//! ```text
//! // lint: allow(L008) — <mandatory justification>
//! // lint: allow(L008, L009) — <one justification for several lints>
//! ```
//!
//! Interprocedural findings are reported at the *sink* (the panicking or
//! allocating line), so that is where the waiver goes. A waiver without
//! a justification, naming an unknown lint, or naming a lint that finds
//! nothing on its own line or the next is itself reported as `E000`, per
//! id, so no waiver outlives the finding it excused. Doc comments are
//! never waivers (the example above is not one).

use std::fmt;
use std::path::Path;

use crate::analyses::{self, Workspace};
use crate::lexer::{Comment, TokKind, Token};
use crate::roots::RootsConfig;

/// Every lint this crate implements: `(id, one-line description)`.
pub const LINTS: &[(&str, &str)] = &[
    ("L008", "no panic site reachable from a declared hot-path root"),
    ("L009", "no allocation reachable from a declared steady-state root"),
    ("L010", "locks follow the declared order; never re-acquired or held across a send"),
];

/// One diagnostic produced by the pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Lint id (one of [`LINTS`], or `E000` for a bad waiver).
    pub lint: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// Lints the workspace at `root` with the given roots; diagnostics are
/// sorted by path and line.
pub fn run(root: &Path, roots: &RootsConfig) -> std::io::Result<Vec<Violation>> {
    Ok(check(&analyses::parse_workspace(root)?, roots))
}

/// Runs every lint over a parsed workspace, then applies its waivers.
pub(crate) fn check(ws: &Workspace, roots: &RootsConfig) -> Vec<Violation> {
    let mut findings = analyses::analyze(ws, roots);
    let mut waivers = Vec::new();
    for (rel_path, lexed) in &ws.files {
        waivers.extend(parse_waivers(rel_path, &lexed.comments, &mut findings));
    }
    apply_waivers(findings, waivers)
}

pub(crate) fn collect_rs_files(
    dir: &Path,
    out: &mut Vec<std::path::PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ------------------------------------------------------------- waivers

/// One lint id of a `// lint: allow(..)` comment.
struct Waiver {
    file: String,
    /// The line the comment is written on.
    line: u32,
    id: String,
}

impl Waiver {
    /// A waiver covers its own line and the next one, so it can sit
    /// either inline after the code or on the line above it.
    fn covers(&self, v: &Violation) -> bool {
        self.id == v.lint && self.file == v.file && (v.line == self.line || v.line == self.line + 1)
    }
}

/// Extracts `// lint: allow(Lnnn) — reason` directives. Several lints
/// may share one directive and justification: `allow(L008, L009)`.
/// Directives with no justification, or naming an unknown lint, are
/// pushed onto `bad` as `E000`. Doc comments are skipped.
fn parse_waivers(rel_path: &str, comments: &[Comment], bad: &mut Vec<Violation>) -> Vec<Waiver> {
    const MARKER: &str = "lint: allow(";
    let mut waivers = Vec::new();
    let mut e000 = |line, message| {
        bad.push(Violation { file: rel_path.to_string(), line, lint: "E000", message });
    };
    for comment in comments {
        if ["///", "//!", "/**", "/*!"].iter().any(|doc| comment.text.starts_with(doc)) {
            continue;
        }
        let Some(start) = comment.text.find(MARKER) else { continue };
        let after = &comment.text[start + MARKER.len()..];
        let Some(close) = after.find(')') else {
            e000(comment.line, "unterminated lint waiver: missing `)`".to_string());
            continue;
        };
        let ids: Vec<&str> = after[..close].split(',').map(str::trim).collect();
        if let Some(id) = ids.iter().find(|id| !LINTS.iter().any(|(known, _)| known == *id)) {
            e000(comment.line, format!("waiver names unknown lint `{id}`"));
            continue;
        }
        let reason = after[close + 1..]
            .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':'));
        if reason.trim().is_empty() {
            let id = ids.join(", ");
            e000(
                comment.line,
                format!(
                    "waiver of {id} has no justification; write `// lint: allow({id}) — <reason>`"
                ),
            );
            continue;
        }
        waivers.extend(ids.into_iter().map(|id| Waiver {
            file: rel_path.to_string(),
            line: comment.line,
            id: id.to_string(),
        }));
    }
    waivers
}

/// Drops every finding a waiver covers and reports, as `E000`, each
/// waiver id that covered nothing.
fn apply_waivers(findings: Vec<Violation>, waivers: Vec<Waiver>) -> Vec<Violation> {
    let mut used = vec![false; waivers.len()];
    let mut out: Vec<Violation> = findings
        .into_iter()
        .filter(|v| {
            let mut covered = false;
            for (w, used) in waivers.iter().zip(used.iter_mut()) {
                if w.covers(v) {
                    *used = true;
                    covered = true;
                }
            }
            !covered
        })
        .collect();
    out.extend(waivers.into_iter().zip(used).filter(|(_, used)| !used).map(|(w, _)| Violation {
        file: w.file,
        line: w.line,
        lint: "E000",
        message: format!(
            "waiver of {} is used by no finding on this line or the next; delete it",
            w.id
        ),
    }));
    out.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    out
}

// -------------------------------------------------------- test regions

/// Line ranges covered by `#[cfg(test)]` or `#[test]` items (attribute
/// line through the closing brace of the annotated item).
pub(crate) fn test_line_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let cfg_test = matches(tokens, i, &["#", "[", "cfg", "(", "test", ")", "]"]);
        let plain_test = matches(tokens, i, &["#", "[", "test", "]"]);
        if !(cfg_test || plain_test) {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Find the item's opening brace, then its matching close.
        let mut j = i + if cfg_test { 7 } else { 4 };
        let mut depth = 0i32;
        while j < tokens.len() && !(depth == 0 && tokens[j].is_punct("{")) {
            depth += nesting_delta(&tokens[j]);
            j += 1;
        }
        let Some(close) = matching_brace(tokens, j) else { break };
        ranges.push((start_line, tokens[close].line));
        i = close + 1;
    }
    ranges
}

pub(crate) fn in_test(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
}

fn matches(tokens: &[Token], at: usize, texts: &[&str]) -> bool {
    texts.iter().enumerate().all(|(k, text)| tokens.get(at + k).is_some_and(|t| t.text == *text))
}

pub(crate) fn nesting_delta(token: &Token) -> i32 {
    if token.kind != TokKind::Punct {
        return 0;
    }
    match token.text.as_str() {
        "(" | "[" | "{" => 1,
        ")" | "]" | "}" => -1,
        _ => 0,
    }
}

/// Index of the bracket closing the one at `open` (`{`, `[` or `(`).
pub(crate) fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, token) in tokens.iter().enumerate().skip(open) {
        depth += nesting_delta(token);
        if depth == 0 {
            return Some(k);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roots::ROOTS;

    const FILE: &str = "crates/serve/src/demo.rs";
    const PANICS: &str = "fn f() { x.unwrap(); }";

    /// Lints one in-memory file, waivers applied, with `f` as the one
    /// panic root.
    fn check_file(src: &str) -> Vec<Violation> {
        let ws = Workspace::from_sources(&[(FILE, src)]);
        check(&ws, &RootsConfig { panic_roots: &["f"], alloc_roots: &[], ..ROOTS })
    }

    fn lints_of(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.lint).collect()
    }

    #[test]
    fn suppression_with_reason_is_honored() {
        let inline = format!("{PANICS} // lint: allow(L008) — x is set above\n");
        assert!(check_file(&inline).is_empty());
        let preceding = format!("// lint: allow(L008) — x is set above\n{PANICS}\n");
        assert!(check_file(&preceding).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_an_error() {
        let src = format!("{PANICS} // lint: allow(L008)\n");
        let v = check_file(&src);
        assert_eq!(lints_of(&v), vec!["E000", "L008"], "bad suppression reported AND lint kept");
    }

    #[test]
    fn suppression_of_unknown_lint_is_an_error() {
        let src = "fn f() {} // lint: allow(L999) — because\n";
        assert_eq!(lints_of(&check_file(src)), vec!["E000"]);
    }

    #[test]
    fn retired_lint_ids_are_unknown() {
        // L001 is clippy's `unwrap_used` now and L006 clippy's
        // `disallowed_methods`; their waivers must go.
        for id in ["L001", "L005", "L006"] {
            let src = format!("{PANICS} // lint: allow({id}) — x is set above\n");
            let v = check_file(&src);
            assert_eq!(lints_of(&v), vec!["E000", "L008"], "the waiver is bad and waives nothing");
            assert!(v[0].message.contains(&format!("unknown lint `{id}`")), "{}", v[0].message);
        }
    }

    #[test]
    fn suppression_only_covers_adjacent_line() {
        let src =
            "fn f() {\n    // lint: allow(L008) — only for the next line\n    x.unwrap();\n    \
                   y.unwrap();\n}\n";
        let v = check_file(src);
        assert_eq!(lints_of(&v), vec!["L008"]);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn a_waiver_no_finding_uses_is_an_error() {
        let src = "// lint: allow(L008) — nothing below panics\nfn f() {}\n";
        let v = check_file(src);
        assert_eq!(lints_of(&v), vec!["E000"]);
        assert_eq!(v[0].line, 1);
        assert!(v[0].message.contains("waiver of L008 is used by no finding"), "{}", v[0].message);
    }

    #[test]
    fn doc_comments_are_never_waivers() {
        let src = format!(
            "//! // lint: allow(L009) — an example in the docs\n\
             /// // lint: allow(L008) — another\n{PANICS}\n"
        );
        let v = check_file(&src);
        assert_eq!(lints_of(&v), vec!["L008"], "the doc comment waived nothing and is no E000");
    }

    #[test]
    fn violations_display_as_file_line_diagnostics() {
        let v = check_file(PANICS);
        assert_eq!(
            v[0].to_string(),
            "crates/serve/src/demo.rs:1: [L008] call to `.unwrap()` may panic on the hot path (f)"
        );
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let src = r##"
fn f() {
    let s = "please x.unwrap() me";
    let r = r#"panic!("no")"#;
    // y.unwrap() in a comment
}
"##;
        assert!(check_file(src).is_empty());
    }

    #[test]
    fn whole_workspace_is_lint_clean() {
        // The acceptance criterion: the pass exits clean on this repo.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
        let violations = run(root, &ROOTS).expect("walk workspace");
        assert!(
            violations.is_empty(),
            "workspace has lint violations:\n{}",
            violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }
}
