//! Integration tests over the fixture mini-workspace in
//! `tests/fixtures/mini`: every interprocedural analysis has a seeded
//! positive with a pinned call chain and a clean negative, stale waivers
//! are reported, the call graph is snapshot against a golden edge list,
//! and the real workspace is gated clean.

use std::path::{Path, PathBuf};

use xtask::analyses;
use xtask::lints::{self, Violation};
use xtask::roots::{RootsConfig, ROOTS};

/// The fixture's roots. Its layout mirrors the real repo: L010 is
/// scoped to `crates/serve/src`, so the lock seeds live there.
const FIXTURE_ROOTS: RootsConfig = RootsConfig {
    panic_roots: &["Engine::process", "Engine::reset"],
    alloc_roots: &["Engine::process"],
    lock_order: &["inner", "results"],
    guard_fns: &[],
};

const HOT: &str = "crates/hot/src/lib.rs";

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join("mini")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

fn fixture_violations() -> Vec<Violation> {
    lints::run(&fixture_root(), &FIXTURE_ROOTS).expect("lints over the fixture workspace")
}

#[track_caller]
fn assert_finding(violations: &[Violation], file: &str, lint: &str, needles: &[&str]) {
    let hit = violations
        .iter()
        .any(|v| v.file == file && v.lint == lint && needles.iter().all(|n| v.message.contains(n)));
    assert!(
        hit,
        "expected a {lint} finding in {file} containing {needles:?}; got:\n{}",
        render(violations)
    );
}

/// The findings reported at `line` of the hot fixture.
fn hot_line(violations: &[Violation], line: u32) -> Vec<&Violation> {
    violations.iter().filter(|v| v.file == HOT && v.line == line).collect()
}

fn render(violations: &[Violation]) -> String {
    violations.iter().map(|v| format!("{v}\n")).collect()
}

#[test]
fn l008_seed_reports_the_call_chain() {
    assert_finding(
        &fixture_violations(),
        HOT,
        "L008",
        &["slice/array index", "Engine::process → Engine::bump"],
    );
}

#[test]
fn l008_suppression_at_the_sink_is_honored() {
    let violations = fixture_violations();
    assert!(
        !violations.iter().any(|v| v.message.contains("Engine::reset")),
        "the waived index in Engine::reset must not be reported:\n{}",
        render(&violations)
    );
    assert!(
        hot_line(&violations, 32).is_empty() && hot_line(&violations, 33).is_empty(),
        "the waiver the index consumes stays silent:\n{}",
        render(&violations)
    );
}

#[test]
fn a_waiver_no_finding_uses_is_reported() {
    let violations = fixture_violations();
    let stale = hot_line(&violations, 42);
    assert_eq!(stale.len(), 1, "{}", render(&violations));
    assert_eq!(stale[0].lint, "E000");
    assert!(stale[0].message.contains("waiver of L009 is used by no finding"), "{}", stale[0]);
}

#[test]
fn a_shared_waiver_reports_only_its_unused_id() {
    let violations = fixture_violations();
    let shared = hot_line(&violations, 34);
    assert_eq!(shared.len(), 1, "L008 is used, L009 is not:\n{}", render(&violations));
    assert_eq!(shared[0].lint, "E000");
    assert!(shared[0].message.contains("waiver of L009"), "{}", shared[0]);
}

#[test]
fn l009_seed_reports_the_call_chain() {
    assert_finding(
        &fixture_violations(),
        HOT,
        "L009",
        &["push", "Engine::process → Engine::flush"],
    );
}

#[test]
fn l009_ignores_allocations_off_the_root_set() {
    let violations = fixture_violations();
    assert!(
        !violations.iter().any(|v| v.message.contains("cold_setup")),
        "cold_setup is reachable from no root and must stay unreported:\n{}",
        render(&violations)
    );
}

#[test]
fn l010_seeds_report_order_reacquire_and_send() {
    let violations = fixture_violations();
    let file = "crates/serve/src/lib.rs";
    assert_finding(&violations, file, "L010", &["violates the declared order", "bad_order"]);
    assert_finding(&violations, file, "L010", &["re-acquired", "self-deadlock"]);
    assert_finding(&violations, file, "L010", &["channel send", "holding lock `inner`"]);
    assert!(
        !violations.iter().any(|v| v.message.contains("good_order")),
        "the ordered acquisition in good_order is clean:\n{}",
        render(&violations)
    );
}

#[test]
fn call_graph_matches_the_golden_edge_list() {
    let ws = analyses::parse_workspace(&fixture_root()).expect("parse fixture workspace");
    let rendered = ws.graph.edges_rendered().join("\n");
    let golden_path = fixture_root().join("golden_callgraph.txt");
    let golden = std::fs::read_to_string(&golden_path).expect("read golden_callgraph.txt");
    assert_eq!(
        rendered.trim(),
        golden.trim(),
        "resolved call graph drifted from {}",
        golden_path.display()
    );
}

/// The static twin of the tier-1 suite: the real workspace must be
/// clean under every project lint, with the committed roots and waivers.
#[test]
fn real_workspace_is_clean_under_interprocedural_lints() {
    let violations = lints::run(&repo_root(), &ROOTS).expect("lints over the real workspace");
    assert!(violations.is_empty(), "workspace regressions:\n{}", render(&violations));
}
