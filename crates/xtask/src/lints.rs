//! The project-specific lints, the waivers that suppress their findings,
//! and [`run`], which applies those waivers once for both tiers.
//!
//! | id | check | scope |
//! |------|-------|-------|
//! | L005 | every `AtomicU64` counter of `ServeMetrics` appears in `StatsSnapshot` (and every `ShardGauges` gauge in `ShardStats`) | `serve/src/metrics.rs` |
//! | L006 | no `.extend_from_slice(` onto per-flow buffers other than the bounded `staging` buffer | `core/src/pipeline.rs` |
//! | L008 | no panic site (panic!/unwrap/expect/`[]`/assert!) reachable from a declared hot-path root | whole workspace, interprocedural |
//! | L009 | no allocation (Vec/Box/String/format!/collect/…) reachable from a declared steady-state root | whole workspace, interprocedural |
//! | L010 | lock discipline: locks acquired in declared order, never re-acquired, never held across a channel send | `serve` library code |
//!
//! L005–L006 are per-token checks implemented in this module. L008–L010
//! are interprocedural: [`crate::parser`] extracts per-function events,
//! [`crate::callgraph`] resolves calls across the workspace, and
//! [`crate::analyses`] walks reachability from the roots declared in
//! [`crate::roots`].
//!
//! "Library code" excludes `src/bin/`, `tests/`, `benches/`, and
//! `#[cfg(test)]` / `#[test]` regions inside library files.
//!
//! # Retired lints
//!
//! Six local checks are clippy lints now, enabled by attribute at the
//! scopes they had here and run by CI's `cargo clippy --workspace
//! --all-targets -- -D warnings`. Their ids are not reused.
//!
//! | was | clippy lint | enabled in |
//! |------|-------------|------------|
//! | L001 | `unwrap_used`, `expect_used` | `lib.rs` of `serve`/`core`/`entropy`/`ml`/`corpus`, outside `cfg(test)` |
//! | L002 | `cast_possible_truncation` | `serve/src/proto.rs` |
//! | L003 | `wildcard_enum_match_arm` | `serve/src/{proto,server}.rs` |
//! | L004 | `print_stdout`, `print_stderr` | as L001 |
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
//! // lint: allow(L006) — <mandatory justification>
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
use crate::lexer::{Comment, Lexed, TokKind, Token};
use crate::roots::RootsConfig;

/// Every lint this crate implements: `(id, one-line description)`.
pub const LINTS: &[(&str, &str)] = &[
    ("L005", "every ServeMetrics counter must appear in StatsSnapshot"),
    ("L006", "no unbounded payload accumulation in core pipeline (staging only)"),
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
        findings.extend(token_lints(rel_path, lexed));
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

/// The per-token lints of one file, before waivers.
fn token_lints(rel_path: &str, lexed: &Lexed) -> Vec<Violation> {
    match rel_path {
        "crates/serve/src/metrics.rs" => l005_metrics_drift(rel_path, lexed),
        "crates/core/src/pipeline.rs" => {
            l006_no_payload_accumulation(rel_path, lexed, &test_line_ranges(&lexed.tokens))
        }
        _ => Vec::new(),
    }
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

/// Index of the `}` matching the `{` at `open` (which must be a `{`).
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

// ---------------------------------------------------------------- L005

fn l005_metrics_drift(rel_path: &str, lexed: &Lexed) -> Vec<Violation> {
    let counters = struct_fields(&lexed.tokens, "ServeMetrics");
    let snapshot = struct_fields(&lexed.tokens, "StatsSnapshot");
    let mut out = Vec::new();
    if counters.is_empty() || snapshot.is_empty() {
        // Renaming either struct without updating the lint would
        // silently disable it; fail loudly instead.
        out.push(Violation {
            file: rel_path.to_string(),
            line: 1,
            lint: "L005",
            message: "could not locate ServeMetrics/StatsSnapshot struct fields".to_string(),
        });
        return out;
    }
    for field in &counters {
        if !field.type_text.contains("AtomicU64") && !field.type_text.contains("LatencyHistogram") {
            continue;
        }
        if !snapshot.iter().any(|s| s.name == field.name) {
            out.push(Violation {
                file: rel_path.to_string(),
                line: field.line,
                lint: "L005",
                message: format!(
                    "metric `{}` is declared in ServeMetrics but missing from StatsSnapshot; \
                     metric drift",
                    field.name
                ),
            });
        }
    }
    // The per-shard gauge pair drifts the same way the top-level pair
    // does: either both structs exist with mirrored fields, or neither.
    let gauges = struct_fields(&lexed.tokens, "ShardGauges");
    let shard_stats = struct_fields(&lexed.tokens, "ShardStats");
    match (gauges.is_empty(), shard_stats.is_empty()) {
        (true, true) => {}
        (false, false) => {
            for field in &gauges {
                if !field.type_text.contains("AtomicU64") {
                    continue;
                }
                if !shard_stats.iter().any(|s| s.name == field.name) {
                    out.push(Violation {
                        file: rel_path.to_string(),
                        line: field.line,
                        lint: "L005",
                        message: format!(
                            "gauge `{}` is declared in ShardGauges but missing from ShardStats; \
                             metric drift",
                            field.name
                        ),
                    });
                }
            }
        }
        _ => out.push(Violation {
            file: rel_path.to_string(),
            line: 1,
            lint: "L005",
            message: "ShardGauges and ShardStats must be declared together (one is missing)"
                .to_string(),
        }),
    }
    // The anytime probe's observability is part of the stats wire
    // contract: the mirrored-field checks above only catch drift
    // between fields that still exist, so the two early-exit metrics
    // are additionally pinned by name — deleting or renaming either
    // side fails here instead of silently dropping the telemetry.
    // So are the flow-ID memo's two counts: `Stage::Hash` is sampled
    // once per miss, so without them its histogram cannot be read.
    for (name, pairs) in [
        ("bytes_at_verdict", [("ServeMetrics", &counters), ("StatsSnapshot", &snapshot)]),
        ("early_exit_verdicts", [("ShardGauges", &gauges), ("ShardStats", &shard_stats)]),
        ("flow_memo_hits", [("ServeMetrics", &counters), ("StatsSnapshot", &snapshot)]),
        ("flow_memo_misses", [("ServeMetrics", &counters), ("StatsSnapshot", &snapshot)]),
    ] {
        for (struct_name, fields) in pairs {
            if !fields.is_empty() && !fields.iter().any(|f| f.name == name) {
                out.push(Violation {
                    file: rel_path.to_string(),
                    line: 1,
                    lint: "L005",
                    message: format!(
                        "metric `{name}` must stay declared in {struct_name}; it is \
                         pinned by the stats wire contract"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------- L006

fn l006_no_payload_accumulation(
    rel_path: &str,
    lexed: &Lexed,
    tests: &[(u32, u32)],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for w in lexed.tokens.windows(4) {
        let receiver = &w[0];
        if receiver.kind == TokKind::Ident
            && w[1].is_punct(".")
            && w[2].is_ident("extend_from_slice")
            && w[3].is_punct("(")
            && !receiver.is_ident("staging")
            && !in_test(tests, w[2].line)
        {
            out.push(Violation {
                file: rel_path.to_string(),
                line: w[2].line,
                lint: "L006",
                message: format!(
                    "`{}.extend_from_slice(` accumulates payload per flow; feed bytes to the \
                     streaming feature state instead (only the bounded `staging` buffer may \
                     hold raw payload)",
                    receiver.text
                ),
            });
        }
    }
    out
}

struct Field {
    name: String,
    type_text: String,
    line: u32,
}

/// Parses `struct <name> { ... }` field names and (flattened) types.
fn struct_fields(tokens: &[Token], name: &str) -> Vec<Field> {
    let mut fields = Vec::new();
    let Some(start) =
        tokens.windows(2).position(|w| w[0].is_ident("struct") && w[1].is_ident(name))
    else {
        return fields;
    };
    let mut i = start + 2;
    while i < tokens.len() && !tokens[i].is_punct("{") {
        if tokens[i].is_punct(";") {
            return fields; // unit or tuple struct
        }
        i += 1;
    }
    let Some(close) = matching_brace(tokens, i) else { return fields };
    i += 1;
    while i < close {
        // Skip attributes.
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let mut depth = 0i32;
            i += 1;
            while i < close {
                depth += nesting_delta(&tokens[i]);
                i += 1;
                if depth == 0 {
                    break;
                }
            }
            continue;
        }
        // Skip visibility.
        if tokens[i].is_ident("pub") {
            i += 1;
            if i < close && tokens[i].is_punct("(") {
                let mut depth = 0i32;
                while i < close {
                    depth += nesting_delta(&tokens[i]);
                    i += 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            continue;
        }
        // Field name.
        if tokens[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let field_name = tokens[i].text.clone();
        let line = tokens[i].line;
        i += 1;
        if i >= close || !tokens[i].is_punct(":") {
            continue;
        }
        i += 1;
        let mut type_text = String::new();
        let mut depth = 0i32;
        while i < close && !(depth == 0 && tokens[i].is_punct(",")) {
            depth += nesting_delta(&tokens[i]);
            type_text.push_str(&tokens[i].text);
            i += 1;
        }
        i += 1; // consume `,`
        fields.push(Field { name: field_name, type_text, line });
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roots::ROOTS;

    const PIPELINE: &str = "crates/core/src/pipeline.rs";
    const METRICS: &str = "crates/serve/src/metrics.rs";
    const ACCUMULATES: &str = "fn f(buf: &mut Flow, p: &[u8]) { buf.data.extend_from_slice(p); }";

    /// Lints one in-memory file, waivers applied, with no roots.
    fn check_file(rel_path: &str, src: &str) -> Vec<Violation> {
        let ws = Workspace::from_sources(&[(rel_path, src)]);
        check(&ws, &RootsConfig { panic_roots: &[], alloc_roots: &[], ..ROOTS })
    }

    fn lints_of(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.lint).collect()
    }

    #[test]
    fn suppression_with_reason_is_honored() {
        let inline = format!("{ACCUMULATES} // lint: allow(L006) — bounded by the window\n");
        assert!(check_file(PIPELINE, &inline).is_empty());
        let preceding = format!("// lint: allow(L006) — bounded by the window\n{ACCUMULATES}\n");
        assert!(check_file(PIPELINE, &preceding).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_an_error() {
        let src = format!("{ACCUMULATES} // lint: allow(L006)\n");
        let v = check_file(PIPELINE, &src);
        assert_eq!(lints_of(&v), vec!["E000", "L006"], "bad suppression reported AND lint kept");
    }

    #[test]
    fn suppression_of_unknown_lint_is_an_error() {
        let src = "fn f() {} // lint: allow(L999) — because\n";
        assert_eq!(lints_of(&check_file(PIPELINE, src)), vec!["E000"]);
    }

    #[test]
    fn retired_lint_ids_are_unknown() {
        // L001 is clippy's `unwrap_used` now; its waivers must go.
        let src = "fn f() { x.unwrap(); } // lint: allow(L001) — invariant: x set above\n";
        let v = check_file("crates/serve/src/server.rs", src);
        assert_eq!(lints_of(&v), vec!["E000"]);
        assert!(v[0].message.contains("unknown lint `L001`"), "{}", v[0].message);
    }

    #[test]
    fn suppression_only_covers_adjacent_line() {
        let src = format!(
            "// lint: allow(L006) — only for the next line\n{ACCUMULATES}\n{ACCUMULATES}\n"
        );
        let v = check_file(PIPELINE, &src);
        assert_eq!(lints_of(&v), vec!["L006"]);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn a_waiver_no_finding_uses_is_an_error() {
        let src = "// lint: allow(L006) — nothing below accumulates\nfn f() {}\n";
        let v = check_file(PIPELINE, src);
        assert_eq!(lints_of(&v), vec!["E000"]);
        assert_eq!(v[0].line, 1);
        assert!(v[0].message.contains("waiver of L006 is used by no finding"), "{}", v[0].message);
    }

    #[test]
    fn doc_comments_are_never_waivers() {
        let src = "//! // lint: allow(L006) — an example in the docs\n\
                   /// // lint: allow(L001) — another\nfn f() {}\n";
        assert!(check_file(PIPELINE, src).is_empty());
    }

    #[test]
    fn l005_catches_counter_missing_from_snapshot() {
        let src = r#"
pub struct ServeMetrics {
    pub packets: AtomicU64,
    pub orphan_counter: AtomicU64,
    pub stages: [LatencyHistogram; 4],
    pub bytes_at_verdict: LatencyHistogram,
    pub flow_memo_hits: AtomicU64,
    pub flow_memo_misses: AtomicU64,
}
pub struct StatsSnapshot {
    pub packets: u64,
    pub stages: [HistogramSnapshot; 4],
    pub bytes_at_verdict: HistogramSnapshot,
    pub flow_memo_hits: u64,
    pub flow_memo_misses: u64,
}
"#;
        let v = check_file(METRICS, src);
        assert_eq!(lints_of(&v), vec!["L005"]);
        assert!(v[0].message.contains("orphan_counter"));
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn l005_passes_when_all_counters_snapshotted() {
        let src = r#"
pub struct ServeMetrics {
    /// Doc.
    pub packets: AtomicU64,
    pub hits: AtomicU64,
    pub bytes_at_verdict: LatencyHistogram,
    pub flow_memo_hits: AtomicU64,
    pub flow_memo_misses: AtomicU64,
}
pub struct StatsSnapshot {
    pub packets: u64,
    pub hits: u64,
    pub bytes_at_verdict: HistogramSnapshot,
    pub flow_memo_hits: u64,
    pub flow_memo_misses: u64,
}
"#;
        assert!(check_file(METRICS, src).is_empty());
    }

    #[test]
    fn l005_fails_loudly_if_structs_vanish() {
        let v = check_file(METRICS, "pub struct SomethingElse;");
        assert_eq!(lints_of(&v), vec!["L005"]);
    }

    #[test]
    fn l005_shard_gauges_must_mirror_shard_stats() {
        let src = r#"
pub struct ServeMetrics { pub packets: AtomicU64, pub bytes_at_verdict: LatencyHistogram, pub flow_memo_hits: AtomicU64, pub flow_memo_misses: AtomicU64 }
pub struct StatsSnapshot { pub packets: u64, pub bytes_at_verdict: HistogramSnapshot, pub flow_memo_hits: u64, pub flow_memo_misses: u64 }
pub struct ShardGauges {
    pub pending_flows: AtomicU64,
    pub orphan_gauge: AtomicU64,
    pub early_exit_verdicts: AtomicU64,
}
pub struct ShardStats {
    pub pending_flows: u64,
    pub early_exit_verdicts: u64,
}
"#;
        let v = check_file(METRICS, src);
        assert_eq!(lints_of(&v), vec!["L005"]);
        assert!(v[0].message.contains("orphan_gauge"));
    }

    #[test]
    fn l005_lone_shard_struct_is_flagged() {
        let src = r#"
pub struct ServeMetrics { pub packets: AtomicU64, pub bytes_at_verdict: LatencyHistogram, pub flow_memo_hits: AtomicU64, pub flow_memo_misses: AtomicU64 }
pub struct StatsSnapshot { pub packets: u64, pub bytes_at_verdict: HistogramSnapshot, pub flow_memo_hits: u64, pub flow_memo_misses: u64 }
pub struct ShardGauges { pub pending_flows: AtomicU64, pub early_exit_verdicts: AtomicU64 }
"#;
        let v = check_file(METRICS, src);
        assert_eq!(lints_of(&v), vec!["L005"]);
        assert!(v[0].message.contains("declared together"));
    }

    #[test]
    fn l005_absent_shard_pair_is_fine() {
        let src = r#"
pub struct ServeMetrics { pub packets: AtomicU64, pub bytes_at_verdict: LatencyHistogram, pub flow_memo_hits: AtomicU64, pub flow_memo_misses: AtomicU64 }
pub struct StatsSnapshot { pub packets: u64, pub bytes_at_verdict: HistogramSnapshot, pub flow_memo_hits: u64, pub flow_memo_misses: u64 }
"#;
        assert!(check_file(METRICS, src).is_empty());
    }

    #[test]
    fn l006_flags_payload_accumulation_outside_staging() {
        let v = check_file(PIPELINE, ACCUMULATES);
        assert_eq!(lints_of(&v), vec!["L006"]);
        assert!(v[0].message.contains("data.extend_from_slice"));
        assert!(check_file("crates/core/src/features.rs", ACCUMULATES).is_empty(), "L006 scoped");
    }

    #[test]
    fn l006_allows_staging_buffer_and_test_code() {
        let src = r#"
fn f(staging: &mut Vec<u8>, p: &[u8]) { staging.extend_from_slice(p); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { payload.extend_from_slice(&extra); }
}
"#;
        assert!(check_file(PIPELINE, src).is_empty());
    }

    #[test]
    fn l005_covers_pool_gauges() {
        // The flow-state pool gauges drift like any other gauge pair.
        let src = r#"
pub struct ServeMetrics { pub packets: AtomicU64, pub bytes_at_verdict: LatencyHistogram, pub flow_memo_hits: AtomicU64, pub flow_memo_misses: AtomicU64 }
pub struct StatsSnapshot { pub packets: u64, pub bytes_at_verdict: HistogramSnapshot, pub flow_memo_hits: u64, pub flow_memo_misses: u64 }
pub struct ShardGauges {
    pub pending_flows: AtomicU64,
    pub state_pool_hits: AtomicU64,
    pub state_pool_size: AtomicU64,
    pub early_exit_verdicts: AtomicU64,
}
pub struct ShardStats {
    pub pending_flows: u64,
    pub state_pool_hits: u64,
    pub early_exit_verdicts: u64,
}
"#;
        let v = check_file(METRICS, src);
        assert_eq!(lints_of(&v), vec!["L005"]);
        assert!(v[0].message.contains("state_pool_size"));
    }

    #[test]
    fn l005_pins_anytime_and_flow_memo_metrics() {
        // Removing both sides of a pinned metric would pass the mirror
        // checks; the pin-by-name catches it.
        let src = r#"
pub struct ServeMetrics { pub packets: AtomicU64 }
pub struct StatsSnapshot { pub packets: u64 }
pub struct ShardGauges { pub pending_flows: AtomicU64 }
pub struct ShardStats { pub pending_flows: u64 }
"#;
        let v = check_file(METRICS, src);
        assert_eq!(lints_of(&v), vec!["L005"; 8]);
        for (pair, name) in
            ["bytes_at_verdict", "early_exit_verdicts", "flow_memo_hits", "flow_memo_misses"]
                .iter()
                .enumerate()
        {
            assert!(v[2 * pair].message.contains(name), "{}", v[2 * pair].message);
            assert!(v[2 * pair + 1].message.contains(name), "{}", v[2 * pair + 1].message);
        }
    }

    #[test]
    fn l005_mirrors_latency_histograms_like_counters() {
        let src = r#"
pub struct ServeMetrics {
    pub packets: AtomicU64,
    pub bytes_at_verdict: LatencyHistogram,
    pub flow_memo_hits: AtomicU64,
    pub flow_memo_misses: AtomicU64,
}
pub struct StatsSnapshot {
    pub packets: u64,
    pub flow_memo_hits: u64,
    pub flow_memo_misses: u64,
}
"#;
        let v = check_file(METRICS, src);
        assert_eq!(lints_of(&v), vec!["L005", "L005"]);
        assert!(v.iter().all(|v| v.message.contains("bytes_at_verdict")));
        assert!(v.iter().any(|v| v.message.contains("missing from StatsSnapshot")));
    }

    #[test]
    fn violations_display_as_file_line_diagnostics() {
        let v = check_file(PIPELINE, ACCUMULATES);
        assert_eq!(
            v[0].to_string(),
            "crates/core/src/pipeline.rs:1: [L006] `data.extend_from_slice(` accumulates payload \
             per flow; feed bytes to the streaming feature state instead (only the bounded \
             `staging` buffer may hold raw payload)"
        );
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let src = r##"
fn f() {
    let s = "please buf.extend_from_slice(p) me";
    let r = r#"data.extend_from_slice(p)"#;
    // payload.extend_from_slice(p) in a comment
}
"##;
        assert!(check_file(PIPELINE, src).is_empty());
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
