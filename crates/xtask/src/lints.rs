//! The project-specific lints and the file-scoping rules that decide
//! where each one applies.
//!
//! | id | check | scope |
//! |------|-------|-------|
//! | L001 | no `.unwrap()` / `.expect(` | `serve`/`core`/`entropy`/`ml`/`corpus` library code |
//! | L002 | no narrowing `as` casts (use `try_from`) | `serve/src/proto.rs` |
//! | L003 | no `_ =>` arm in a `match` over `Request`/`Response` | `serve/src/{proto,server}.rs` |
//! | L004 | no `println!` / `eprintln!` (metrics, not stdout) | `serve`/`core`/`entropy`/`ml`/`corpus` library code |
//! | L005 | every `AtomicU64` counter of `ServeMetrics` appears in `StatsSnapshot` (and every `ShardGauges` gauge in `ShardStats`) | `serve/src/metrics.rs` |
//! | L006 | no `.extend_from_slice(` onto per-flow buffers other than the bounded `staging` buffer | `core/src/pipeline.rs` |
//! | L007 | no `std::collections::HashMap` (SipHash) — use `fastmap::FxHashMap` or `CounterTable` | `entropy` library code |
//! | L008 | no panic site (panic!/unwrap/expect/`[]`/assert!) reachable from a declared hot-path root | whole workspace, interprocedural |
//! | L009 | no allocation (Vec/Box/String/format!/collect/…) reachable from a declared steady-state root | whole workspace, interprocedural |
//! | L010 | lock discipline: locks acquired in declared order, never re-acquired, never held across a channel send | `serve` library code |
//! | L011 | no bare `+`/`*`/`+=`/`*=` on lengths and counters — use `checked_`/`wrapping_`/`saturating_` | `serve/src/proto.rs`, `entropy/src/fastmap.rs` |
//!
//! L001–L007 are per-token checks implemented in this module. L008–L011
//! are interprocedural: [`crate::parser`] extracts per-function events,
//! [`crate::callgraph`] resolves calls across the workspace, and
//! [`crate::analyses`] walks reachability from roots declared in
//! `crates/xtask/roots.toml`.
//!
//! "Library code" excludes `src/bin/`, `tests/`, `benches/`, and
//! `#[cfg(test)]` / `#[test]` regions inside library files.
//!
//! A violation is suppressed by an inline comment on the same or the
//! preceding line:
//!
//! ```text
//! // lint: allow(L001) — <mandatory justification>
//! // lint: allow(L008, L009) — <one justification for several lints>
//! ```
//!
//! Interprocedural findings are reported at the *sink* (the panicking or
//! allocating line), so that is where the suppression goes. A
//! suppression without a justification (or naming an unknown lint) is
//! itself reported as `E000`.
//!
//! # `roots.toml` format
//!
//! The interprocedural lints are driven by `crates/xtask/roots.toml`, a
//! committed declaration of what "the hot path" is:
//!
//! ```text
//! [panic_roots]
//! fns = ["Iustitia::process_packet", "CompiledTree::try_predict"]  # L008 roots
//!
//! [alloc_roots]
//! fns = ["Iustitia::process_packet"]   # L009 roots; must cover pool_alloc.rs
//!
//! [lock_order]
//! order = ["inner", "results"]         # outermost lock first
//! guard_fns = ["lock_state:inner"]     # fns returning a guard for a lock
//! ```
//!
//! Root specs are `Type::method` (matched against the enclosing `impl`
//! type) or a bare free-function name. A spec that matches no workspace
//! function is itself a hard error — rename drift must not silently
//! disable an analysis. Lock names are the receiver identifiers the
//! guards are acquired from (`self.inner.lock()` acquires `inner`).

use std::fmt;
use std::path::Path;

use crate::lexer::{lex, Comment, Lexed, TokKind, Token};

/// Every lint this pass implements: `(id, one-line description)`.
pub const LINTS: &[(&str, &str)] = &[
    ("L001", "no .unwrap()/.expect( in serve/core/entropy/ml/corpus library code"),
    ("L002", "no narrowing `as` casts in serve/src/proto.rs; use try_from"),
    ("L003", "no `_ =>` wildcard arms in matches over Request/Response"),
    ("L004", "no println!/eprintln! in library code (bins exempt)"),
    ("L005", "every ServeMetrics counter must appear in StatsSnapshot"),
    ("L006", "no unbounded payload accumulation in core pipeline (staging only)"),
    ("L007", "no SipHash HashMap in entropy library code; use fastmap"),
    ("L008", "no panic site reachable from a declared hot-path root (roots.toml)"),
    ("L009", "no allocation reachable from a declared steady-state root (roots.toml)"),
    ("L010", "locks follow the declared order; never re-acquired or held across a send"),
    ("L011", "no bare +/* on lengths and counters in proto.rs/fastmap.rs; use checked_/wrapping_/saturating_"),
];

/// One diagnostic produced by the pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Lint id (`L001`..`L006`, or `E000` for a bad suppression).
    pub lint: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// Lints one file. `rel_path` is the workspace-relative path (forward
/// slashes), which selects the applicable lints.
pub fn check_file(rel_path: &str, src: &str) -> Vec<Violation> {
    let in_scope = is_panic_free_scope(rel_path)
        || rel_path == "crates/serve/src/proto.rs"
        || rel_path == "crates/serve/src/server.rs"
        || rel_path == "crates/serve/src/metrics.rs";
    if !in_scope {
        return Vec::new();
    }
    let lexed = lex(src);
    let tests = test_line_ranges(&lexed.tokens);
    let (supp, mut violations) = parse_suppressions(rel_path, &lexed.comments);

    let mut raw: Vec<Violation> = Vec::new();
    if is_panic_free_scope(rel_path) {
        raw.extend(l001_no_unwrap(rel_path, &lexed, &tests));
        raw.extend(l004_no_println(rel_path, &lexed, &tests));
    }
    if rel_path == "crates/serve/src/proto.rs" {
        raw.extend(l002_no_narrowing_casts(rel_path, &lexed, &tests));
    }
    if rel_path == "crates/serve/src/proto.rs" || rel_path == "crates/serve/src/server.rs" {
        raw.extend(l003_no_protocol_wildcards(rel_path, &lexed, &tests));
    }
    if rel_path == "crates/serve/src/metrics.rs" {
        raw.extend(l005_metrics_drift(rel_path, &lexed));
    }
    if rel_path == "crates/core/src/pipeline.rs" {
        raw.extend(l006_no_payload_accumulation(rel_path, &lexed, &tests));
    }
    if rel_path.starts_with("crates/entropy/src/") && !rel_path.contains("/bin/") {
        raw.extend(l007_no_siphash_hashmap(rel_path, &lexed, &tests));
    }

    violations.extend(raw.into_iter().filter(|v| !supp.covers(v.lint, v.line)));
    violations.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    violations
}

/// Walks `root` and lints every in-scope file; diagnostics are sorted
/// by path and line.
pub fn run(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let src_dir = entry?.path().join("src");
        if src_dir.is_dir() {
            collect_rs_files(&src_dir, &mut files)?;
        }
    }
    files.sort();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let src = std::fs::read_to_string(&file)?;
        violations.extend(check_file(&rel, &src));
    }
    Ok(violations)
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

/// The crates whose library code must be panic-free on the serving path
/// (corpus rides along: its generators feed training pipelines that must
/// surface `TrainError` instead of dying mid-run).
fn is_panic_free_scope(rel_path: &str) -> bool {
    let in_crate = [
        "crates/serve/src/",
        "crates/core/src/",
        "crates/entropy/src/",
        "crates/ml/src/",
        "crates/corpus/src/",
    ]
    .iter()
    .any(|p| rel_path.starts_with(p));
    in_crate && !rel_path.contains("/bin/")
}

// -------------------------------------------------------- suppressions

pub(crate) struct Suppressions {
    /// `(lint id, line the suppression is written on)`.
    entries: Vec<(String, u32)>,
}

impl Suppressions {
    /// A suppression covers its own line and the next one, so it can sit
    /// either inline after the code or on the line above it.
    pub(crate) fn covers(&self, lint: &str, line: u32) -> bool {
        self.entries.iter().any(|(id, l)| id == lint && (*l == line || l + 1 == line))
    }
}

/// Extracts `// lint: allow(Lnnn) — reason` directives. Several lints
/// may share one directive and justification: `allow(L008, L009)`.
/// Directives with no justification, or naming an unknown lint, become
/// `E000`.
pub(crate) fn parse_suppressions(
    rel_path: &str,
    comments: &[Comment],
) -> (Suppressions, Vec<Violation>) {
    const MARKER: &str = "lint: allow(";
    let mut entries = Vec::new();
    let mut bad = Vec::new();
    for comment in comments {
        let Some(start) = comment.text.find(MARKER) else { continue };
        let after = &comment.text[start + MARKER.len()..];
        let Some(close) = after.find(')') else {
            bad.push(Violation {
                file: rel_path.to_string(),
                line: comment.line,
                lint: "E000",
                message: "unterminated lint suppression: missing `)`".to_string(),
            });
            continue;
        };
        let ids: Vec<String> = after[..close].split(',').map(|id| id.trim().to_string()).collect();
        let unknown: Vec<&String> =
            ids.iter().filter(|id| !LINTS.iter().any(|(known, _)| known == id)).collect();
        if let Some(id) = unknown.first() {
            bad.push(Violation {
                file: rel_path.to_string(),
                line: comment.line,
                lint: "E000",
                message: format!("suppression names unknown lint `{id}`"),
            });
            continue;
        }
        let reason = after[close + 1..]
            .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':'));
        if reason.trim().is_empty() {
            let id = ids.join(", ");
            bad.push(Violation {
                file: rel_path.to_string(),
                line: comment.line,
                lint: "E000",
                message: format!(
                    "suppression of {id} has no justification; write `// lint: allow({id}) — <reason>`"
                ),
            });
            continue;
        }
        entries.extend(ids.into_iter().map(|id| (id, comment.line)));
    }
    (Suppressions { entries }, bad)
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

pub(crate) fn matches(tokens: &[Token], at: usize, texts: &[&str]) -> bool {
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

// ---------------------------------------------------------------- L001

fn l001_no_unwrap(rel_path: &str, lexed: &Lexed, tests: &[(u32, u32)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for w in lexed.tokens.windows(3) {
        let method = &w[1];
        if w[0].is_punct(".")
            && (method.is_ident("unwrap") || method.is_ident("expect"))
            && w[2].is_punct("(")
            && !in_test(tests, method.line)
        {
            out.push(Violation {
                file: rel_path.to_string(),
                line: method.line,
                lint: "L001",
                message: format!(
                    ".{}() can panic on the serving path; propagate a Result or recover",
                    method.text
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------- L002

/// Cast targets that can silently truncate wire-relevant integers.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

fn l002_no_narrowing_casts(rel_path: &str, lexed: &Lexed, tests: &[(u32, u32)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for w in lexed.tokens.windows(2) {
        if w[0].is_ident("as")
            && w[1].kind == TokKind::Ident
            && NARROW_TARGETS.contains(&w[1].text.as_str())
            && !in_test(tests, w[0].line)
        {
            out.push(Violation {
                file: rel_path.to_string(),
                line: w[0].line,
                lint: "L002",
                message: format!(
                    "`as {}` can truncate on the encode/decode path; use `{}::try_from`",
                    w[1].text, w[1].text
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------- L003

fn l003_no_protocol_wildcards(
    rel_path: &str,
    lexed: &Lexed,
    tests: &[(u32, u32)],
) -> Vec<Violation> {
    let tokens = &lexed.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("match") || in_test(tests, tokens[i].line) {
            continue;
        }
        // Opening brace of the match body: first `{` at nesting 0 after
        // the scrutinee (braces inside the scrutinee only occur nested
        // in parens/brackets, e.g. closures).
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < tokens.len() && !(depth == 0 && tokens[j].is_punct("{")) {
            depth += nesting_delta(&tokens[j]);
            j += 1;
        }
        let Some(close) = matching_brace(tokens, j) else { continue };
        let mut protocol_match = false;
        let mut wildcard_lines = Vec::new();
        let mut k = j + 1;
        while k < close {
            // Pattern: tokens until `=>` at arm-relative nesting 0.
            let pat_start = k;
            let mut depth = 0i32;
            while k < close && !(depth == 0 && tokens[k].is_punct("=>")) {
                depth += nesting_delta(&tokens[k]);
                k += 1;
            }
            if k >= close {
                break;
            }
            let pattern = &tokens[pat_start..k];
            if pattern.windows(2).any(|w| {
                (w[0].is_ident("Request") || w[0].is_ident("Response")) && w[1].is_punct("::")
            }) {
                protocol_match = true;
            }
            let is_wildcard = pattern.first().is_some_and(|t| t.is_ident("_"))
                && (pattern.len() == 1 || pattern[1].is_ident("if"));
            if is_wildcard {
                wildcard_lines.push(pattern[0].line);
            }
            k += 1; // consume `=>`
                    // Arm body: a brace block, or an expression up to `,`.
            if k < close && tokens[k].is_punct("{") {
                let Some(body_close) = matching_brace(tokens, k) else { break };
                k = body_close + 1;
                if k < close && tokens[k].is_punct(",") {
                    k += 1;
                }
            } else {
                let mut depth = 0i32;
                while k < close && !(depth == 0 && tokens[k].is_punct(",")) {
                    depth += nesting_delta(&tokens[k]);
                    k += 1;
                }
                k += 1; // consume `,` (or step past `close`)
            }
        }
        if protocol_match {
            for line in wildcard_lines {
                out.push(Violation {
                    file: rel_path.to_string(),
                    line,
                    lint: "L003",
                    message: "wildcard `_ =>` arm in a match over Request/Response silently \
                              drops new protocol variants; list every variant"
                        .to_string(),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------- L004

fn l004_no_println(rel_path: &str, lexed: &Lexed, tests: &[(u32, u32)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for w in lexed.tokens.windows(2) {
        let mac = &w[0];
        if (mac.is_ident("println") || mac.is_ident("eprintln"))
            && w[1].is_punct("!")
            && !in_test(tests, mac.line)
        {
            out.push(Violation {
                file: rel_path.to_string(),
                line: mac.line,
                lint: "L004",
                message: format!(
                    "{}! in library code; report through metrics (bins are exempt)",
                    mac.text
                ),
            });
        }
    }
    out
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

// ---------------------------------------------------------------- L007

/// The entropy kernel is hash-bound: every gram touch is a map probe,
/// so `std`'s DoS-hardened SipHash dominates the profile. Library code
/// must use the vendored `fastmap` types (`FxHashMap`, `CounterTable`);
/// the bare `HashMap` ident is the tell. Tests may model against `std`.
fn l007_no_siphash_hashmap(rel_path: &str, lexed: &Lexed, tests: &[(u32, u32)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for token in &lexed.tokens {
        if token.is_ident("HashMap") && !in_test(tests, token.line) {
            out.push(Violation {
                file: rel_path.to_string(),
                line: token.line,
                lint: "L007",
                message: "std::collections::HashMap pays SipHash per probe on the gram hot \
                          path; use fastmap::FxHashMap or fastmap::CounterTable"
                    .to_string(),
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

    const SERVE_LIB: &str = "crates/serve/src/server.rs";
    const PROTO: &str = "crates/serve/src/proto.rs";
    const METRICS: &str = "crates/serve/src/metrics.rs";

    fn lints_of(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.lint).collect()
    }

    #[test]
    fn l001_flags_unwrap_and_expect_in_lib_code() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); }";
        let v = check_file(SERVE_LIB, src);
        assert_eq!(lints_of(&v), vec!["L001", "L001"]);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn l001_ignores_unwrap_or_else_and_test_code() {
        let src = r#"
fn f() { x.unwrap_or_else(g); y.unwrap_or(3); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); }
}
"#;
        assert!(check_file(SERVE_LIB, src).is_empty());
    }

    #[test]
    fn l001_out_of_scope_paths_are_exempt() {
        let src = "fn f() { x.unwrap(); }";
        assert!(check_file("crates/serve/src/bin/iustitia.rs", src).is_empty());
        assert!(check_file("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn l001_covers_ml_lib_code() {
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(check_file("crates/ml/src/svm.rs", src).len(), 1);
        assert_eq!(check_file("crates/ml/src/compiled.rs", src).len(), 1);
    }

    #[test]
    fn l001_and_l004_cover_corpus_lib_code() {
        // The corpus generators feed training pipelines that propagate
        // TrainError; a panic or stray println in a generator would
        // bypass both.
        let src = "fn f() { x.unwrap(); println!(\"debug\"); }";
        let v = check_file("crates/corpus/src/compressed.rs", src);
        assert_eq!(lints_of(&v), vec!["L001", "L004"]);
        assert_eq!(check_file("crates/corpus/src/lib.rs", src).len(), 2);
    }

    #[test]
    fn l007_covers_randomness_battery() {
        let src = "fn f() { let m: HashMap<u8, u64> = HashMap::new(); }";
        let v = check_file("crates/entropy/src/randomness.rs", src);
        assert_eq!(lints_of(&v), vec!["L007", "L007"]);
    }

    #[test]
    fn l001_suppression_with_reason_is_honored() {
        let inline = "fn f() { x.unwrap(); } // lint: allow(L001) — invariant: x set above\n";
        assert!(check_file(SERVE_LIB, inline).is_empty());
        let preceding =
            "// lint: allow(L001) — capacity asserted in new()\nfn f() { x.unwrap(); }\n";
        assert!(check_file(SERVE_LIB, preceding).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_an_error() {
        let src = "fn f() { x.unwrap(); } // lint: allow(L001)\n";
        let v = check_file(SERVE_LIB, src);
        assert_eq!(lints_of(&v), vec!["E000", "L001"], "bad suppression reported AND lint kept");
    }

    #[test]
    fn suppression_of_unknown_lint_is_an_error() {
        let src = "fn f() {} // lint: allow(L999) — because\n";
        assert_eq!(lints_of(&check_file(SERVE_LIB, src)), vec!["E000"]);
    }

    #[test]
    fn suppression_only_covers_adjacent_line() {
        let src = "// lint: allow(L001) — only for the next line\nfn f() { a.unwrap(); }\nfn g() { b.unwrap(); }\n";
        let v = check_file(SERVE_LIB, src);
        assert_eq!(lints_of(&v), vec!["L001"]);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn l002_flags_narrowing_casts_in_proto_only() {
        let src = "fn f(n: usize) -> u32 { n as u32 }";
        let v = check_file(PROTO, src);
        assert_eq!(lints_of(&v), vec!["L002"]);
        assert!(v[0].message.contains("try_from"));
        assert!(check_file(SERVE_LIB, src).is_empty(), "L002 scoped to proto.rs");
    }

    #[test]
    fn l002_allows_widening_casts() {
        let src = "fn f(n: u8) -> usize { let a = n as usize; let b = n as u64; a + b as usize }";
        assert!(check_file(PROTO, src).is_empty());
    }

    #[test]
    fn l003_flags_wildcard_over_protocol_enums() {
        let src = r#"
fn f(r: Request) {
    match r {
        Request::Stats => serve_stats(),
        _ => {}
    }
}
"#;
        let v = check_file(PROTO, src);
        assert_eq!(lints_of(&v), vec!["L003"]);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn l003_ignores_wildcards_over_other_types() {
        let src = r#"
fn f(v: Verdict) {
    match v {
        Verdict::Hit(label) => on_hit(label),
        _ => {}
    }
}
"#;
        assert!(check_file(SERVE_LIB, src).is_empty());
    }

    #[test]
    fn l003_exhaustive_protocol_match_passes() {
        let src = r#"
fn f(r: Request) -> u8 {
    match r {
        Request::Stats => 1,
        Request::Drain if now() > 0 => 2,
        Request::SubmitPacket(p) => route(p),
        Request::ClassifyBuffer(b) => classify(b),
        Request::Drain => 3,
    }
}
"#;
        assert!(check_file(SERVE_LIB, src).is_empty());
    }

    #[test]
    fn l003_guarded_wildcard_is_still_a_wildcard() {
        let src = "fn f(r: Response) -> u8 { match r { Response::Busy(t) => 1, _ if cheap() => 2, _ => 3 } }";
        let v = check_file(SERVE_LIB, src);
        assert_eq!(lints_of(&v), vec!["L003", "L003"]);
    }

    #[test]
    fn l003_binding_patterns_are_not_wildcards() {
        let src = "fn f(r: Request) { match r { Request::Stats => a(), other => keep(other), } }";
        assert!(check_file(SERVE_LIB, src).is_empty());
    }

    #[test]
    fn l004_flags_println_in_lib_not_bins() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); }";
        let v = check_file("crates/core/src/pipeline.rs", src);
        assert_eq!(lints_of(&v), vec!["L004", "L004"]);
        assert!(check_file("crates/serve/src/bin/iustitia.rs", src).is_empty());
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
        let src = "fn f(buf: &mut Flow, p: &[u8]) { buf.data.extend_from_slice(p); }";
        let v = check_file("crates/core/src/pipeline.rs", src);
        assert_eq!(lints_of(&v), vec!["L006"]);
        assert!(v[0].message.contains("data.extend_from_slice"));
        assert!(check_file("crates/core/src/features.rs", src).is_empty(), "L006 scoped");
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
        assert!(check_file("crates/core/src/pipeline.rs", src).is_empty());
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
    fn l007_flags_siphash_hashmap_in_entropy_lib() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u128, u64> = HashMap::new(); }\n";
        let v = check_file("crates/entropy/src/estimate.rs", src);
        assert_eq!(lints_of(&v), vec!["L007", "L007", "L007"]);
        assert!(v[0].message.contains("fastmap"));
        assert!(check_file("crates/core/src/pipeline.rs", src).is_empty(), "L007 entropy-only");
    }

    #[test]
    fn l007_allows_tests_fx_alias_and_suppressed_lines() {
        let src = r#"
// lint: allow(L007) — this alias IS the sanctioned fast-hashed HashMap
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
fn f() { let m: FxHashMap<u128, u64> = FxHashMap::default(); }
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let model: HashMap<u128, u64> = HashMap::new(); }
}
"#;
        assert!(check_file("crates/entropy/src/fastmap.rs", src).is_empty());
    }

    #[test]
    fn violations_display_as_file_line_diagnostics() {
        let v = check_file(SERVE_LIB, "fn f() { x.unwrap(); }");
        assert_eq!(
            v[0].to_string(),
            "crates/serve/src/server.rs:1: [L001] .unwrap() can panic on the serving path; \
             propagate a Result or recover"
        );
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let src = r##"
fn f() {
    let s = "please .unwrap() me";
    let r = r#"println!("hi") as u8"#;
    // .expect("just a comment") and _ => also here
}
"##;
        assert!(check_file(PROTO, src).is_empty());
    }

    #[test]
    fn whole_workspace_is_lint_clean() {
        // The acceptance criterion: the pass exits clean on this repo.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
        let violations = run(root).expect("walk workspace");
        assert!(
            violations.is_empty(),
            "workspace has lint violations:\n{}",
            violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }
}
