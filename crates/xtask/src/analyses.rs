//! The interprocedural analyses L008–L010, built on [`crate::parser`]
//! and [`crate::callgraph`].
//!
//! Soundness stance — **conservative over-approximation**:
//!
//! * every same-name candidate callee is kept (no type information),
//!   except candidates in crates the caller does not depend on (such an
//!   edge cannot link at build time) and std trait-protocol names like
//!   `next`/`fmt` (see [`crate::callgraph`]);
//! * calls inside closures count as calls of the enclosing function;
//! * a callee that resolves to *zero* workspace functions is looked up
//!   in the effect knowledge base ([`effect_of`]) — a curated table of
//!   the std/vendored surface the hot path uses — and anything not in
//!   the table is assumed to both panic and allocate;
//! * the documented trust decisions (each marked in the table):
//!   `from`/`into` are treated as non-allocating conversions, closure
//!   *adapters* (`map`, `unwrap_or_else`, …) are clean because their
//!   closure bodies are scanned as events of the enclosing function,
//!   and `debug_assert!` is excluded (compiled out of release builds).
//!
//! [`analyze`] reports raw findings; [`crate::lints::check`] applies the
//! `// lint: allow(Lxxx) — reason` waivers to them, which must sit at
//! the reported *sink* line.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::Path;

use crate::callgraph::{is_primitive, CallGraph};
use crate::lexer::{lex, Lexed};
use crate::lints::{collect_rs_files, Violation};
use crate::parser::{parse_file, Callee, Event, FnItem};
use crate::roots::RootsConfig;

/// Macros whose expansion can panic (`debug_assert!` deliberately
/// excluded: it is compiled out of release builds).
const PANIC_MACROS: &[&str] =
    &["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

/// Macros whose expansion allocates.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// What an unresolved callee may do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effect {
    pub panics: bool,
    pub allocs: bool,
    /// Whether the verdict came from the knowledge base (vs. assumed).
    pub known: bool,
}

const CLEAN: Effect = Effect { panics: false, allocs: false, known: true };
const PANICS: Effect = Effect { panics: true, allocs: false, known: true };
const ALLOCS: Effect = Effect { panics: false, allocs: true, known: true };
const UNKNOWN: Effect = Effect { panics: true, allocs: true, known: false };

/// `Qualifier::name` entries, consulted before the name-only table.
const KB_QUALIFIED: &[(&str, Effect)] = &[
    ("mem::swap", CLEAN),
    ("mem::take", CLEAN),
    ("mem::replace", CLEAN),
    ("mem::size_of", CLEAN),
    ("cmp::min", CLEAN),
    ("cmp::max", CLEAN),
    ("Vec::new", CLEAN), // capacity 0: the allocation happens at the first push
    ("Vec::with_capacity", ALLOCS),
    ("Vec::from", ALLOCS),
    ("String::new", CLEAN), // capacity 0, as with Vec::new
    ("String::with_capacity", ALLOCS),
    ("String::from", ALLOCS),
    ("Box::new", ALLOCS),
    ("HashMap::remove", CLEAN), // keyed: returns Option; the bare name stays conservative for Vec::remove
    ("BinaryHeap::new", ALLOCS),
    ("BinaryHeap::with_capacity", ALLOCS),
    ("VecDeque::new", ALLOCS),
    ("VecDeque::with_capacity", ALLOCS),
    ("Instant::now", CLEAN),
    ("Duration::from_secs", CLEAN),
    ("Duration::from_micros", CLEAN),
];

/// Name-keyed effects for the std/vendored surface the workspace uses.
/// Closure-taking adapters are clean by design: their closure bodies
/// are scanned as events of the enclosing function.
const KB: &[(&str, Effect)] = &[
    // Panicking calls.
    ("unwrap", PANICS),
    ("expect", PANICS),
    ("split_at", PANICS),
    ("split_at_mut", PANICS),
    ("copy_from_slice", PANICS),
    ("copy_within", PANICS), // range-checked
    ("clone_from_slice", PANICS),
    ("swap", PANICS),   // slice swap is index-checked; mem::swap is qualified above
    ("remove", PANICS), // Vec::remove is index-checked (HashMap::remove is not, kept conservative)
    ("drain", PANICS),  // range-checked
    ("rem_euclid", PANICS), // zero divisor
    ("gen_range", PANICS), // vendored rand: panics on an empty range
    ("swap_remove", PANICS), // index-checked
    ("ilog2", PANICS),  // panics on zero
    // Allocating calls.
    ("push", ALLOCS),
    ("push_back", ALLOCS),
    ("with_capacity", ALLOCS),
    ("resize", ALLOCS),
    ("into_boxed_slice", ALLOCS), // may shrink-reallocate
    ("push_str", ALLOCS),
    ("insert", ALLOCS),
    ("or_insert", ALLOCS),
    ("or_insert_with", ALLOCS),
    ("or_default", ALLOCS),
    ("reserve", ALLOCS),
    ("reserve_exact", ALLOCS),
    ("extend", ALLOCS),
    ("extend_from_slice", ALLOCS),
    ("to_vec", ALLOCS),
    ("to_owned", ALLOCS),
    ("to_string", ALLOCS),
    ("collect", ALLOCS),
    ("clone", ALLOCS), // Clone of heap-owning types allocates; derived Copy-ish clones are free
    ("sort", ALLOCS),
    ("sort_by", ALLOCS),
    ("sort_by_key", ALLOCS),
    ("send", ALLOCS), // mpsc send may grow the channel buffer
    ("try_send", CLEAN),
    // Clean accessors, iterators, and arithmetic.
    ("len", CLEAN),
    ("is_empty", CLEAN),
    ("iter", CLEAN),
    ("iter_mut", CLEAN),
    ("into_iter", CLEAN),
    ("enumerate", CLEAN),
    ("zip", CLEAN),
    ("rev", CLEAN),
    ("map", CLEAN),
    ("filter", CLEAN),
    ("filter_map", CLEAN),
    ("flat_map", CLEAN),
    ("flatten", CLEAN),
    ("take", CLEAN),
    ("skip", CLEAN),
    ("chain", CLEAN),
    ("copied", CLEAN),
    ("cloned", CLEAN),
    ("sum", CLEAN),
    ("product", CLEAN),
    ("count", CLEAN),
    ("fold", CLEAN),
    ("all", CLEAN),
    ("any", CLEAN),
    ("position", CLEAN),
    ("find", CLEAN),
    ("find_map", CLEAN),
    ("contains", CLEAN),
    ("contains_key", CLEAN),
    ("starts_with", CLEAN),
    ("ends_with", CLEAN),
    ("get", CLEAN),
    ("get_mut", CLEAN),
    ("first", CLEAN),
    ("last", CLEAN),
    ("next", CLEAN),
    ("peekable", CLEAN),
    ("peek", CLEAN),
    ("by_ref", CLEAN),
    ("chunks", CLEAN),       // chunk size is a non-zero constant at every call site
    ("chunks_exact", CLEAN), // chunk size is a non-zero constant at every call site
    ("chunks_exact_mut", CLEAN),
    ("chunk_by", CLEAN), // chunks are never empty; no size to get wrong
    ("remainder", CLEAN),
    ("windows", CLEAN),   // window size is a non-zero constant at every call site
    ("pop", CLEAN),       // Vec::pop returns Option
    ("truncate", CLEAN),  // no-op when longer than len
    ("pop_front", CLEAN), // VecDeque::pop_front returns Option
    ("fetch_add", CLEAN), // atomic RMW wraps, never panics
    ("store", CLEAN),     // atomic store
    ("cast", CLEAN),      // pointer type cast, pure
    ("retain", CLEAN),
    ("entry", CLEAN), // the Entry itself; inserting through it is or_insert/or_default
    ("into_mut", CLEAN),
    ("split", CLEAN),
    ("rsplit", CLEAN),
    ("split_once", CLEAN),
    ("rsplit_once", CLEAN),
    ("split_whitespace", CLEAN),
    ("splitn", CLEAN),
    ("lines", CLEAN),
    ("bytes", CLEAN),
    ("chars", CLEAN),
    ("trim", CLEAN),
    ("trim_start", CLEAN),
    ("trim_end", CLEAN),
    ("next_power_of_two", CLEAN), // wraps to 0 on release-mode overflow, never panics there
    ("gen", CLEAN),               // vendored rand: pure state transition
    ("seed_from_u64", CLEAN),     // vendored rand: array-state seeding, no allocation
    ("split_first", CLEAN),
    ("split_last", CLEAN),
    ("first_chunk", CLEAN),       // Option-returning, like `first`
    ("split_first_chunk", CLEAN), // Option-returning, like `split_first`
    ("split_at_checked", CLEAN),  // the Option-returning `split_at`
    ("sort_unstable", CLEAN),
    ("sort_unstable_by", CLEAN),
    ("sort_unstable_by_key", CLEAN),
    ("binary_search", CLEAN),
    ("binary_search_by", CLEAN),
    ("fill", CLEAN),
    ("min", CLEAN),
    ("max", CLEAN),
    ("min_by", CLEAN),
    ("max_by", CLEAN),
    ("min_by_key", CLEAN),
    ("max_by_key", CLEAN),
    ("abs", CLEAN),
    ("sqrt", CLEAN),
    ("ln", CLEAN),
    ("log2", CLEAN),
    ("log10", CLEAN),
    ("exp", CLEAN),
    ("powi", CLEAN),
    ("powf", CLEAN),
    ("floor", CLEAN),
    ("ceil", CLEAN),
    ("round", CLEAN),
    ("trunc", CLEAN),
    ("fract", CLEAN),
    ("signum", CLEAN),
    ("clamp", CLEAN), // bounds are constants at every call site
    ("total_cmp", CLEAN),
    ("partial_cmp", CLEAN),
    ("cmp", CLEAN),
    ("eq", CLEAN),
    ("ne", CLEAN),
    ("hash", CLEAN),
    ("then", CLEAN),
    ("then_some", CLEAN),
    ("then_with", CLEAN),
    // Option/Result plumbing.
    ("unwrap_or", CLEAN),
    ("unwrap_or_else", CLEAN),
    ("unwrap_or_default", CLEAN),
    ("map_or", CLEAN),
    ("map_or_else", CLEAN),
    ("map_err", CLEAN),
    ("ok", CLEAN),
    ("err", CLEAN),
    ("ok_or", CLEAN),
    ("ok_or_else", CLEAN),
    ("and_then", CLEAN),
    ("or_else", CLEAN),
    ("replace", CLEAN),
    // Conversions — trust decision: the hot path only converts between
    // integer/float primitives, which neither panic nor allocate.
    ("from", CLEAN),
    ("into", CLEAN),
    ("try_from", CLEAN),
    ("try_into", CLEAN),
    ("to_le_bytes", CLEAN),
    ("to_be_bytes", CLEAN),
    ("from_le_bytes", CLEAN),
    ("from_be_bytes", CLEAN),
    ("to_bits", CLEAN),
    ("from_bits", CLEAN),
    ("count_ones", CLEAN),
    ("count_zeros", CLEAN),
    ("leading_zeros", CLEAN),
    ("trailing_zeros", CLEAN),
    ("rotate_left", CLEAN), // integer bit-rotate (slice rotate is absent from the hot path)
    ("rotate_right", CLEAN),
    ("pow", CLEAN), // exponents are small constants at every call site
    ("div_euclid", CLEAN),
    ("default", CLEAN),
    ("drop", CLEAN),
    // Locks and channels (discipline is L010's job, not reachability's).
    ("lock", CLEAN),
    ("notify_one", CLEAN),
    ("notify_all", CLEAN),
    ("wait", CLEAN),
    ("elapsed", CLEAN),
    ("as_nanos", CLEAN),
    ("as_micros", CLEAN),
    ("as_secs_f64", CLEAN),
];

/// Prefixes that are clean wherever they appear (`checked_add`,
/// `saturating_mul`, `wrapping_shl`, `is_ascii`, `as_bytes`, …).
const CLEAN_PREFIXES: &[&str] =
    &["checked_", "saturating_", "wrapping_", "overflowing_", "is_", "as_"];

/// The assumed effect of a callee that resolved to no workspace fn.
pub fn effect_of(callee: &Callee) -> Effect {
    let name = callee.name();
    if let Callee::Path(segs) = callee {
        if segs.len() >= 2 {
            let qualifier = &segs[segs.len() - 2];
            // `u64::from`, `f64::max`, … — primitive ops are clean.
            if is_primitive(qualifier) {
                return CLEAN;
            }
            let key = format!("{qualifier}::{name}");
            if let Some((_, e)) = KB_QUALIFIED.iter().find(|(k, _)| *k == key) {
                return *e;
            }
        }
    }
    if let Some((_, e)) = KB.iter().find(|(k, _)| *k == name) {
        return *e;
    }
    if CLEAN_PREFIXES.iter().any(|p| name.starts_with(p)) {
        return CLEAN;
    }
    // `Some(..)`, `Ok(..)`, `FileClass::Text(..)` — plain enum/tuple
    // constructors neither panic nor allocate.
    if name.chars().next().is_some_and(char::is_uppercase) {
        return CLEAN;
    }
    UNKNOWN
}

// ------------------------------------------------------------ workspace

/// The parsed workspace: the call graph, and every source file lexed.
pub struct Workspace {
    pub graph: CallGraph,
    /// `(workspace-relative path, lexed source)` of every
    /// `crates/*/src/**.rs` file, `src/bin/` included: bins add no
    /// function to the graph, but their waivers are checked like any
    /// other.
    pub(crate) files: Vec<(String, Lexed)>,
}

impl Workspace {
    /// A workspace of in-memory `(rel_path, src)` files, without the
    /// crate dependency bound.
    #[cfg(test)]
    pub(crate) fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let files: Vec<(String, Lexed)> =
            sources.iter().map(|(rel, src)| (rel.to_string(), lex(src))).collect();
        let items = files.iter().flat_map(|(rel, lexed)| parse_file(rel, lexed)).collect();
        Workspace { graph: CallGraph::build(items), files }
    }
}

/// Lexes every `crates/*/src/**.rs` file under `root` and parses its
/// library files into the call graph. `src/bin/` harnesses are excluded
/// from the graph: they are not reachable from library roots, but their
/// look-alike types (e.g. the benchmark's baseline kernels) would
/// otherwise be pulled into method-call fan-out.
pub fn parse_workspace(root: &Path) -> std::io::Result<Workspace> {
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let src_dir = entry?.path().join("src");
        if src_dir.is_dir() {
            collect_rs_files(&src_dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut items = Vec::new();
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let lexed = lex(&std::fs::read_to_string(&path)?);
        if !rel.contains("/bin/") {
            items.extend(parse_file(&rel, &lexed));
        }
        files.push((rel, lexed));
    }
    let mut graph = CallGraph::build(items);
    graph.set_deps(workspace_deps(root)?);
    Ok(Workspace { graph, files })
}

/// Reads every `crates/*/Cargo.toml` and returns, per crate directory,
/// the reflexive-transitive set of workspace crates its *library*
/// target depends on (dev-dependencies are ignored: test code is never
/// analyzed). This bounds call resolution to edges that can link.
fn workspace_deps(root: &Path) -> std::io::Result<HashMap<String, HashSet<String>>> {
    let mut pkg_to_dir: HashMap<String, String> = HashMap::new();
    let mut direct: HashMap<String, Vec<String>> = HashMap::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let dir_path = entry?.path();
        let manifest = dir_path.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let dir = dir_path.file_name().unwrap_or_default().to_string_lossy().to_string();
        let mut section = String::new();
        let mut deps = Vec::new();
        for raw in std::fs::read_to_string(&manifest)?.lines() {
            let line = raw.trim();
            if line.starts_with('[') {
                section = line.to_string();
                continue;
            }
            if section == "[package]" {
                if let Some(("name", v)) = line.split_once('=').map(|(k, v)| (k.trim(), v.trim())) {
                    pkg_to_dir.insert(v.trim_matches('"').to_string(), dir.clone());
                }
            } else if section == "[dependencies]" {
                if let Some((k, _)) = line.split_once('=') {
                    deps.push(k.trim().to_string());
                }
            }
        }
        direct.insert(dir, deps);
    }
    let mut out = HashMap::new();
    for dir in direct.keys() {
        let mut seen: HashSet<String> = HashSet::new();
        let mut stack = vec![dir.clone()];
        while let Some(d) = stack.pop() {
            if !seen.insert(d.clone()) {
                continue;
            }
            for dep in direct.get(&d).into_iter().flatten() {
                if let Some(dep_dir) = pkg_to_dir.get(dep) {
                    stack.push(dep_dir.clone());
                }
            }
        }
        out.insert(dir.clone(), seen);
    }
    Ok(out)
}

/// Runs L008–L010 over a parsed workspace; waivers are not applied.
pub(crate) fn analyze(ws: &Workspace, roots: &RootsConfig) -> Vec<Violation> {
    let mut out = l008_panic_reachability(ws, roots);
    out.extend(l009_alloc_reachability(ws, roots));
    out.extend(l010_lock_discipline(ws, roots));
    out
}

/// Looks up root specs; unmatched specs are themselves violations so a
/// rename can never silently disable an analysis.
fn resolve_roots(
    graph: &CallGraph,
    specs: &[&str],
    lint: &'static str,
) -> (Vec<usize>, Vec<Violation>) {
    let mut roots = Vec::new();
    let mut missing = Vec::new();
    for spec in specs {
        let found = graph.find(spec);
        if found.is_empty() {
            missing.push(Violation {
                file: "crates/xtask/src/roots.rs".to_string(),
                line: 1,
                lint,
                message: format!("root `{spec}` matches no workspace function (rename drift?)"),
            });
        }
        roots.extend(found);
    }
    (roots, missing)
}

// ----------------------------------------------------------------- L008

fn l008_panic_reachability(ws: &Workspace, cfg: &RootsConfig) -> Vec<Violation> {
    let (roots, mut out) = resolve_roots(&ws.graph, cfg.panic_roots, "L008");
    let parents = ws.graph.reachable(&roots);
    let mut reached: Vec<usize> = parents.keys().copied().collect();
    reached.sort_unstable();
    for i in reached {
        let f = &ws.graph.fns[i];
        let chain = ws.graph.chain(&parents, i);
        for event in &f.events {
            let (line, what) = match event {
                Event::Macro { name, line } if PANIC_MACROS.contains(&name.as_str()) => {
                    (*line, format!("`{name}!`"))
                }
                Event::Index { line } => (*line, "slice/array index `[]`".to_string()),
                Event::Call { callee, line, .. } => {
                    if !ws.graph.resolve(callee, f).is_empty() {
                        continue; // workspace callee: its body is walked
                    }
                    let e = effect_of(callee);
                    if !e.panics {
                        continue;
                    }
                    let tag = if e.known { "" } else { " (unresolved, assumed panicking)" };
                    (*line, format!("call to `{}`{tag}", callee.display()))
                }
                _ => continue,
            };
            out.push(Violation {
                file: f.file.clone(),
                line,
                lint: "L008",
                message: format!("{what} may panic on the hot path ({chain})"),
            });
        }
    }
    out
}

// ----------------------------------------------------------------- L009

fn l009_alloc_reachability(ws: &Workspace, cfg: &RootsConfig) -> Vec<Violation> {
    let (roots, mut out) = resolve_roots(&ws.graph, cfg.alloc_roots, "L009");
    let parents = ws.graph.reachable(&roots);
    let mut reached: Vec<usize> = parents.keys().copied().collect();
    reached.sort_unstable();
    for i in reached {
        let f = &ws.graph.fns[i];
        let chain = ws.graph.chain(&parents, i);
        for event in &f.events {
            let (line, what) = match event {
                Event::Macro { name, line } if ALLOC_MACROS.contains(&name.as_str()) => {
                    (*line, format!("`{name}!`"))
                }
                Event::Call { callee, line, .. } => {
                    if !ws.graph.resolve(callee, f).is_empty() {
                        continue;
                    }
                    let e = effect_of(callee);
                    if !e.allocs {
                        continue;
                    }
                    let tag = if e.known { "" } else { " (unresolved, assumed allocating)" };
                    (*line, format!("call to `{}`{tag}", callee.display()))
                }
                _ => continue,
            };
            out.push(Violation {
                file: f.file.clone(),
                line,
                lint: "L009",
                message: format!("{what} allocates on the steady-state path ({chain})"),
            });
        }
    }
    out
}

// ----------------------------------------------------------------- L010

/// Whether L010 analyzes functions from this file.
fn l010_scope(file: &str) -> bool {
    file.starts_with("crates/serve/src/") && !file.contains("/bin/")
}

/// Per-function transitive lock summaries: which locks a call may
/// acquire, and whether it may send on a channel.
struct LockSummaries {
    acquires: Vec<BTreeSet<String>>,
    sends: Vec<bool>,
}

/// L010 follows a call edge only when resolution is *unambiguous*.
/// Common method names (`len`, `extend`, `clear`, …) fan out to every
/// same-named workspace fn; propagating lock summaries through that
/// fan-out would report a queue's internal locking at every unrelated
/// `.len()` call site. L008/L009 keep the full fan-out — a missed panic
/// is worse than a noisy one — but lock discipline needs the edge to be
/// real.
fn resolve_unique(graph: &CallGraph, callee: &Callee, ctx: &FnItem) -> Option<usize> {
    match graph.resolve(callee, ctx).as_slice() {
        [t] => Some(*t),
        _ => None,
    }
}

fn lock_summaries(graph: &CallGraph, cfg: &RootsConfig) -> LockSummaries {
    let n = graph.fns.len();
    let mut acquires: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut sends = vec![false; n];
    for (i, f) in graph.fns.iter().enumerate() {
        for event in &f.events {
            let Event::Call { callee, receiver, .. } = event else { continue };
            match callee.name() {
                "lock" => {
                    let name = receiver.clone().unwrap_or_else(|| "?".to_string());
                    acquires[i].insert(name);
                }
                "send" => sends[i] = true,
                _ => {}
            }
            if let Some(lock) = cfg.guard_lock(callee.name()) {
                acquires[i].insert(lock.to_string());
            }
        }
    }
    // Propagate through calls to a fixpoint (the graph is small).
    loop {
        let mut changed = false;
        for i in 0..n {
            let f = &graph.fns[i];
            for event in &f.events {
                let Event::Call { callee, .. } = event else { continue };
                let Some(t) = resolve_unique(graph, callee, f) else { continue };
                if t == i {
                    continue;
                }
                if sends[t] && !sends[i] {
                    sends[i] = true;
                    changed = true;
                }
                let extra: Vec<String> = acquires[t].difference(&acquires[i]).cloned().collect();
                if !extra.is_empty() {
                    acquires[i].extend(extra);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    LockSummaries { acquires, sends }
}

/// A held lock guard during the intra-function walk.
struct Guard {
    lock: String,
    binding: Option<String>,
    depth: u32,
    line: u32,
}

fn l010_lock_discipline(ws: &Workspace, cfg: &RootsConfig) -> Vec<Violation> {
    let graph = &ws.graph;
    let sums = lock_summaries(graph, cfg);
    let mut out = Vec::new();
    for f in &graph.fns {
        if f.is_test || !l010_scope(&f.file) {
            continue;
        }
        let mut held: Vec<Guard> = Vec::new();
        let push_violation = |line: u32, message: String, out: &mut Vec<Violation>| {
            out.push(Violation { file: f.file.clone(), line, lint: "L010", message });
        };
        for event in &f.events {
            match event {
                Event::ScopeEnd { depth } => held.retain(|g| g.depth <= *depth),
                Event::StmtEnd { depth } => {
                    // Unbound guards are temporaries: they die with the
                    // statement that created them.
                    held.retain(|g| g.binding.is_some() || g.depth > *depth)
                }
                Event::Call { callee, receiver, binding, arg0, line, depth } => {
                    let name = callee.name();
                    if name == "drop" {
                        if let Some(arg) = arg0 {
                            held.retain(|g| g.binding.as_deref() != Some(arg.as_str()));
                        }
                        continue;
                    }
                    let acquired: Option<String> = if name == "lock" {
                        Some(receiver.clone().unwrap_or_else(|| "?".to_string()))
                    } else {
                        cfg.guard_lock(name).map(str::to_string)
                    };
                    if let Some(lock) = acquired {
                        let rank = cfg.lock_rank(&lock);
                        if rank.is_none() {
                            push_violation(
                                *line,
                                format!(
                                    "lock `{lock}` acquired in {} is not in the declared \
                                     lock order",
                                    f.qualified()
                                ),
                                &mut out,
                            );
                        }
                        for g in &held {
                            let outer = cfg.lock_rank(&g.lock);
                            if g.lock == lock {
                                push_violation(
                                    *line,
                                    format!(
                                        "lock `{lock}` re-acquired in {} while already held \
                                         (acquired line {}) — self-deadlock",
                                        f.qualified(),
                                        g.line
                                    ),
                                    &mut out,
                                );
                            } else if !matches!((outer, rank), (Some(o), Some(r)) if o < r) {
                                push_violation(
                                    *line,
                                    format!(
                                        "lock `{lock}` acquired in {} while holding `{}` \
                                         (line {}) violates the declared order {:?}",
                                        f.qualified(),
                                        g.lock,
                                        g.line,
                                        cfg.lock_order
                                    ),
                                    &mut out,
                                );
                            }
                        }
                        held.push(Guard {
                            lock,
                            binding: binding.clone(),
                            depth: *depth,
                            line: *line,
                        });
                        continue;
                    }
                    if name == "send" && !held.is_empty() {
                        push_violation(
                            *line,
                            format!(
                                "channel send in {} while holding lock `{}` (line {}); \
                                 release the guard before sending",
                                f.qualified(),
                                held[held.len() - 1].lock,
                                held[held.len() - 1].line
                            ),
                            &mut out,
                        );
                        continue;
                    }
                    // A call while holding: the callee's transitive
                    // acquisitions and sends happen under our guard.
                    if held.is_empty() {
                        continue;
                    }
                    if let Some(t) = resolve_unique(graph, callee, f) {
                        if sums.sends[t] {
                            push_violation(
                                *line,
                                format!(
                                    "{} calls {} (which sends on a channel) while holding \
                                     lock `{}` (line {})",
                                    f.qualified(),
                                    graph.fns[t].qualified(),
                                    held[held.len() - 1].lock,
                                    held[held.len() - 1].line
                                ),
                                &mut out,
                            );
                        }
                        for inner in &sums.acquires[t] {
                            for g in &held {
                                let (outer_rank, inner_rank) =
                                    (cfg.lock_rank(&g.lock), cfg.lock_rank(inner));
                                let ordered = matches!(
                                    (outer_rank, inner_rank),
                                    (Some(o), Some(r)) if o < r
                                );
                                if !ordered {
                                    push_violation(
                                        *line,
                                        format!(
                                            "{} calls {} (which acquires `{inner}`) while \
                                             holding `{}` (line {}); nested acquisition \
                                             violates the declared order {:?}",
                                            f.qualified(),
                                            graph.fns[t].qualified(),
                                            g.lock,
                                            g.line,
                                            cfg.lock_order
                                        ),
                                        &mut out,
                                    );
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::check;

    fn cfg_with_roots(roots: &'static [&'static str]) -> RootsConfig {
        RootsConfig {
            panic_roots: roots,
            alloc_roots: roots,
            lock_order: &["outer", "inner"],
            guard_fns: &[],
        }
    }

    #[test]
    fn l008_reports_transitive_panics_with_chains() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/demo.rs",
            r#"
pub fn hot() { warm(); }
fn warm() { deep(); }
fn deep(xs: &[u8]) -> u8 { xs[0] }
fn cold() { panic!("not reachable"); }
"#,
        )]);
        let v = check(&ws, &cfg_with_roots(&["hot"]));
        let l008: Vec<&Violation> = v.iter().filter(|v| v.lint == "L008").collect();
        assert_eq!(l008.len(), 1, "only the reachable index, not cold's panic: {v:?}");
        assert!(l008[0].message.contains("hot → warm → deep"), "{}", l008[0].message);
        assert_eq!(l008[0].line, 4);
    }

    #[test]
    fn l008_flags_unknown_callees_and_honors_suppressions() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/demo.rs",
            r#"
pub fn hot() {
    mystery_extern();
    other_mystery(); // lint: allow(L008) — vendored, audited panic-free
}
"#,
        )]);
        let cfg = cfg_with_roots(&["hot"]);
        let v = check(&ws, &cfg);
        let l008: Vec<&Violation> = v.iter().filter(|v| v.lint == "L008").collect();
        assert_eq!(l008.len(), 1);
        assert!(l008[0].message.contains("mystery_extern"));
    }

    #[test]
    fn l009_static_pool_alloc_twin() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/demo.rs",
            r#"
pub fn hot(out: &mut Vec<u8>) { grow(out); math(); }
fn grow(out: &mut Vec<u8>) { out.push(1); }
fn math() -> u64 { 2u64.saturating_add(3) }
"#,
        )]);
        let v = check(&ws, &cfg_with_roots(&["hot"]));
        let l009: Vec<&Violation> = v.iter().filter(|v| v.lint == "L009").collect();
        assert_eq!(l009.len(), 1, "{v:?}");
        assert!(l009[0].message.contains(".push()"));
        assert!(l009[0].message.contains("hot → grow"));
    }

    #[test]
    fn missing_roots_fail_loudly() {
        let ws = Workspace::from_sources(&[("crates/core/src/demo.rs", "pub fn present() {}")]);
        let v = check(&ws, &cfg_with_roots(&["Vanished::gone"]));
        assert!(v.iter().any(|v| v.lint == "L008" && v.message.contains("Vanished::gone")));
        assert!(v.iter().any(|v| v.lint == "L009" && v.message.contains("Vanished::gone")));
    }

    #[test]
    fn l010_flags_order_violation_and_send_under_lock() {
        let ws = Workspace::from_sources(&[(
            "crates/serve/src/demo.rs",
            r#"
struct S;
impl S {
    fn bad_order(&self) {
        let a = self.inner.lock();
        let b = self.outer.lock();
        drop(b);
        drop(a);
    }
    fn bad_send(&self, tx: &Sender<u8>) {
        let g = self.outer.lock();
        tx.send(1);
        drop(g);
    }
    fn good(&self, tx: &Sender<u8>) {
        let g = self.outer.lock();
        drop(g);
        tx.send(1);
        let a = self.outer.lock();
        let b = self.inner.lock();
        drop(b);
        drop(a);
    }
}
"#,
        )]);
        let v = check(&ws, &cfg_with_roots(&[]));
        let l010: Vec<&Violation> = v.iter().filter(|v| v.lint == "L010").collect();
        assert_eq!(l010.len(), 2, "{l010:?}");
        assert!(l010[0].message.contains("violates the declared order"));
        assert!(l010[1].message.contains("send in S::bad_send while holding lock `outer`"));
    }

    #[test]
    fn l010_sees_through_guard_fns_and_callee_summaries() {
        let ws = Workspace::from_sources(&[(
            "crates/serve/src/demo.rs",
            r#"
struct Q;
impl Q {
    fn lock_state(&self) -> Guard { self.inner.lock().unwrap_or_else(recover) }
    fn notifies(&self, tx: &Sender<u8>) { tx.send(9); }
    fn nested(&self) {
        let g = self.lock_state();
        self.notifies(tx);
        drop(g);
    }
}
"#,
        )]);
        let mut cfg = cfg_with_roots(&[]);
        cfg.guard_fns = &[("lock_state", "inner")];
        let v = check(&ws, &cfg);
        let l010: Vec<&Violation> = v.iter().filter(|v| v.lint == "L010").collect();
        assert_eq!(l010.len(), 1, "{l010:?}");
        assert!(l010[0].message.contains("Q::notifies"));
        assert!(l010[0].message.contains("while holding"));
    }

    #[test]
    fn l010_unbound_guard_dies_with_its_statement() {
        let ws = Workspace::from_sources(&[(
            "crates/serve/src/demo.rs",
            r#"
struct S;
impl S {
    fn fine(&self, tx: &Sender<u8>) {
        self.outer.lock().count += 1;
        tx.send(1);
    }
}
"#,
        )]);
        let v = check(&ws, &cfg_with_roots(&[]));
        assert!(v.iter().all(|v| v.lint != "L010"), "{v:?}");
    }
}
