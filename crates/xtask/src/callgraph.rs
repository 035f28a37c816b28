//! Workspace call graph: a function index plus name resolution tuned
//! to this project's idioms.
//!
//! Resolution is deliberately *name-based and over-approximate* — the
//! analyzer has no type information, so:
//!
//! * `.method(..)` resolves to **every** non-test workspace `fn` of
//!   that name that takes `self` (all candidate receivers are kept);
//! * `bare(..)` resolves to every free `fn` of that name;
//! * `Self::f(..)` uses the enclosing `impl` type;
//! * `Type::f(..)` (uppercase head) uses the `(owner, name)` index;
//! * `iustitia_*::path::f(..)` / `crate::path::f(..)` resolve by final
//!   segment; `std::`/`core::`/`alloc::` paths never resolve and fall
//!   through to the effect knowledge base in [`crate::analyses`].
//!
//! Anything that resolves to zero workspace functions is an **unknown
//! callee**: the analyses consult their std-surface knowledge base and
//! otherwise assume the worst (may panic, may allocate). Test functions
//! (`#[test]` / `#[cfg(test)]`) are excluded from the index so test
//! helpers never pollute hot-path resolution.

use std::collections::{HashMap, HashSet};

use crate::parser::{Callee, Event, FnItem};

/// Method names that belong to std trait protocols (`Iterator::next`,
/// `Display::fmt`, operator traits, …). Calls to these are
/// overwhelmingly std-type protocol dispatch, so they never resolve to
/// workspace functions by bare name — `.next()` on a `Lines` iterator
/// in the pipeline must not resolve to the netsim trace generator's
/// `Iterator` impl. Their effects come from the knowledge base instead.
/// Operator traits (`Add`, `Index`, …) are *not* listed: they dispatch
/// through syntax, and their names collide with real inherent methods
/// (`FileClass::index`).
const STD_TRAIT_METHODS: &[&str] = &[
    "next",
    "next_back",
    "fmt",
    "clone",
    "clone_from",
    "default",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
    "deref",
    "deref_mut",
    "from_str",
];

/// Rust integer/float primitive type names.
pub fn is_primitive(name: &str) -> bool {
    matches!(
        name,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "f32"
            | "f64"
            | "char"
            | "bool"
    )
}

/// The indexed workspace call graph.
pub struct CallGraph {
    /// All parsed items (test items included, but never indexed).
    pub fns: Vec<FnItem>,
    by_name: HashMap<String, Vec<usize>>,
    by_owner_name: HashMap<(String, String), Vec<usize>>,
    /// Transitive workspace dependencies per crate (reflexive). Empty =
    /// no filtering (unit tests over single files).
    deps: HashMap<String, HashSet<String>>,
}

impl CallGraph {
    /// Builds the index over `items`.
    pub fn build(items: Vec<FnItem>) -> Self {
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_owner_name: HashMap<(String, String), Vec<usize>> = HashMap::new();
        for (i, item) in items.iter().enumerate() {
            if item.is_test {
                continue;
            }
            by_name.entry(item.name.clone()).or_default().push(i);
            if let Some(owner) = &item.owner {
                by_owner_name.entry((owner.clone(), item.name.clone())).or_default().push(i);
            }
        }
        CallGraph { fns: items, by_name, by_owner_name, deps: HashMap::new() }
    }

    /// Installs the crate-dependency map: a call in crate `k` may only
    /// resolve to crates in `deps[k]`. An edge against the dependency
    /// direction cannot link at build time, so resolving it would be
    /// pure noise (e.g. `core` code hitting an `xtask` method name).
    pub fn set_deps(&mut self, deps: HashMap<String, HashSet<String>>) {
        self.deps = deps;
    }

    /// Whether a call from `from_krate` may land in `target`'s crate.
    fn dep_allowed(&self, from_krate: &str, target: usize) -> bool {
        if self.deps.is_empty() {
            return true;
        }
        match self.deps.get(from_krate) {
            Some(reachable) => reachable.contains(&self.fns[target].krate),
            // Unknown caller crate (fixtures): same-crate only is too
            // strict for an over-approximation; allow everything.
            None => true,
        }
    }

    /// Finds functions matching a root spec: `Type::name` or `name`.
    pub fn find(&self, spec: &str) -> Vec<usize> {
        match spec.rsplit_once("::") {
            Some((owner, name)) => self
                .by_owner_name
                .get(&(owner.to_string(), name.to_string()))
                .cloned()
                .unwrap_or_default(),
            None => self.by_name.get(spec).cloned().unwrap_or_default(),
        }
    }

    /// Resolves one callee reference from inside `ctx` to workspace
    /// function indices. Empty = unknown callee (std, vendored, or a
    /// closure) — the caller decides how dirty to assume it is.
    pub fn resolve(&self, callee: &Callee, ctx: &FnItem) -> Vec<usize> {
        let hits = match callee {
            Callee::Method(name) if STD_TRAIT_METHODS.contains(&name.as_str()) => Vec::new(),
            Callee::Method(name) => self
                .by_name
                .get(name)
                .map(|c| c.iter().copied().filter(|&i| self.fns[i].has_self).collect())
                .unwrap_or_default(),
            Callee::Bare(name) => self
                .by_name
                .get(name)
                .map(|c| c.iter().copied().filter(|&i| !self.fns[i].has_self).collect())
                .unwrap_or_default(),
            Callee::Path(segs) => self.resolve_path(segs, ctx),
        };
        hits.into_iter().filter(|&i| self.dep_allowed(&ctx.krate, i)).collect()
    }

    fn resolve_path(&self, segs: &[String], ctx: &FnItem) -> Vec<usize> {
        let Some(name) = segs.last() else { return Vec::new() };
        let head = segs.first().map(String::as_str).unwrap_or("");
        // Std-family paths are never workspace functions.
        if matches!(head, "std" | "core" | "alloc") && segs.len() > 2 {
            return Vec::new();
        }
        if segs.len() >= 2 {
            let qualifier = &segs[segs.len() - 2];
            if qualifier == "Self" {
                if let Some(owner) = &ctx.owner {
                    let hits = self
                        .by_owner_name
                        .get(&(owner.clone(), name.clone()))
                        .cloned()
                        .unwrap_or_default();
                    if !hits.is_empty() {
                        return hits;
                    }
                }
                return self.by_name.get(name).cloned().unwrap_or_default();
            }
            // `u64::from(..)`, `f64::max(..)`: a primitive's associated
            // function, never a module path into the workspace.
            if is_primitive(qualifier) {
                return Vec::new();
            }
            if qualifier.chars().next().is_some_and(char::is_uppercase) {
                // `Type::name` — enum constructors (`FileClass::Text`)
                // never end in `(` unless tuple variants; treating them
                // as unresolved-with-KB is handled by the analyses.
                return self
                    .by_owner_name
                    .get(&(qualifier.clone(), name.clone()))
                    .cloned()
                    .unwrap_or_default();
            }
        }
        // Module path (`crate::x::f`, `iustitia_entropy::vector::f`):
        // resolve by final segment across the workspace.
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Breadth-first reachability from `roots`. Returns, for every
    /// reached function index, the index it was first reached from
    /// (roots map to themselves).
    pub fn reachable(&self, roots: &[usize]) -> HashMap<usize, usize> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(r) {
                e.insert(r);
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            // Indexing with a fresh clone borrow: fns[i] is immutable.
            for event in &self.fns[i].events {
                let Event::Call { callee, .. } = event else { continue };
                for target in self.resolve(callee, &self.fns[i]) {
                    if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(target) {
                        e.insert(i);
                        queue.push_back(target);
                    }
                }
            }
        }
        parent
    }

    /// The call chain `root → … → target` as qualified names.
    pub fn chain(&self, parents: &HashMap<usize, usize>, target: usize) -> String {
        let mut names = vec![self.fns[target].qualified()];
        let mut at = target;
        // Bounded walk: parent maps are acyclic by construction (BFS
        // tree), the bound only guards against future bugs.
        for _ in 0..parents.len() + 1 {
            let Some(&p) = parents.get(&at) else { break };
            if p == at {
                break;
            }
            names.push(self.fns[p].qualified());
            at = p;
        }
        names.reverse();
        names.join(" → ")
    }

    /// Renders every resolved edge as `caller -> callee`, sorted and
    /// deduplicated — the golden-output format for fixture tests.
    pub fn edges_rendered(&self) -> Vec<String> {
        let mut edges = Vec::new();
        for item in self.fns.iter().filter(|f| !f.is_test) {
            for event in &item.events {
                let Event::Call { callee, .. } = event else { continue };
                for target in self.resolve(callee, item) {
                    edges.push(format!("{} -> {}", item.qualified(), self.fns[target].qualified()));
                }
            }
        }
        edges.sort();
        edges.dedup();
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn graph(src: &str) -> CallGraph {
        CallGraph::build(parse_file("crates/core/src/demo.rs", &lex(src)))
    }

    #[test]
    fn method_calls_resolve_to_all_self_takers() {
        let g = graph(
            r#"
struct A; struct B;
impl A { fn go(&self) {} }
impl B { fn go(&self) {} }
fn go() {}
fn caller(a: &A) { a.go(); }
"#,
        );
        let caller = g.find("caller")[0];
        let ctx = &g.fns[caller];
        let targets = g.resolve(&Callee::Method("go".into()), ctx);
        let mut owners: Vec<Option<&str>> =
            targets.iter().map(|&i| g.fns[i].owner.as_deref()).collect();
        owners.sort();
        assert_eq!(owners, vec![Some("A"), Some("B")], "both receivers kept, free fn excluded");
    }

    #[test]
    fn self_and_type_paths_use_the_owner_index() {
        let g = graph(
            r#"
struct A; struct B;
impl A {
    fn entry(&self) { Self::helper(); B::other(); }
    fn helper() {}
}
impl B { fn other() {} }
"#,
        );
        let entry = g.find("A::entry")[0];
        let ctx = &g.fns[entry].clone();
        let h = g.resolve(&Callee::Path(vec!["Self".into(), "helper".into()]), ctx);
        assert_eq!(h.len(), 1);
        assert_eq!(g.fns[h[0]].qualified(), "A::helper");
        let o = g.resolve(&Callee::Path(vec!["B".into(), "other".into()]), ctx);
        assert_eq!(o.len(), 1);
        assert_eq!(g.fns[o[0]].qualified(), "B::other");
    }

    #[test]
    fn std_paths_and_unknowns_resolve_to_nothing() {
        let g = graph("fn f() { std::mem::swap(a, b); totally_unknown(); }");
        let f = g.find("f")[0];
        let ctx = &g.fns[f].clone();
        assert!(g
            .resolve(&Callee::Path(vec!["std".into(), "mem".into(), "swap".into()]), ctx)
            .is_empty());
        assert!(g.resolve(&Callee::Bare("totally_unknown".into()), ctx).is_empty());
    }

    #[test]
    fn primitive_associated_fns_are_not_module_paths() {
        let g = graph(
            r#"
struct E;
impl E { fn from(x: u8) -> E { E } }
fn f(b: bool) -> u64 { u64::from(b) }
"#,
        );
        let f = g.find("f")[0];
        let ctx = &g.fns[f].clone();
        assert!(g.resolve(&Callee::Path(vec!["u64".into(), "from".into()]), ctx).is_empty());
        assert_eq!(g.resolve(&Callee::Path(vec!["E".into(), "from".into()]), ctx).len(), 1);
    }

    #[test]
    fn reachability_reports_chains() {
        let g = graph(
            r#"
fn root() { mid(); }
fn mid() { leaf(); }
fn leaf() {}
fn unrelated() {}
"#,
        );
        let roots = g.find("root");
        let parents = g.reachable(&roots);
        let leaf = g.find("leaf")[0];
        assert!(parents.contains_key(&leaf));
        assert!(!parents.contains_key(&g.find("unrelated")[0]));
        assert_eq!(g.chain(&parents, leaf), "root → mid → leaf");
    }

    #[test]
    fn test_fns_never_enter_the_index() {
        let g = graph(
            r#"
fn lib() {}
#[cfg(test)]
mod tests {
    fn lib() { boom(); }
    #[test]
    fn t() { lib(); }
}
"#,
        );
        assert_eq!(g.find("lib").len(), 1, "only the non-test `lib` is indexed");
        assert!(g.find("t").is_empty());
    }
}
