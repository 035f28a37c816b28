//! A hand-rolled item/function parser on top of [`crate::lexer`].
//!
//! This is *not* a Rust parser — it is the minimal syntax layer the
//! interprocedural analyses need, extracted from the token stream:
//!
//! * `fn` items (free functions, inherent/trait methods, trait default
//!   bodies), with their owning `impl`/`trait` type and whether they
//!   take `self`;
//! * per-body **events**: call expressions (method, bare, and path
//!   calls), macro invocations, index expressions (`x[i]` in expression
//!   position), and block-scope closings — enough to drive panic-,
//!   allocation- and lock-analyses without a full AST;
//! * just enough generics handling to not get lost: angle-bracket lists
//!   are skipped with `>>`/`<<` counting ±2, so the single `>>` token
//!   the lexer emits for `Vec<Vec<u8>>` closes both lists.
//!
//! Everything is a conservative over-approximation of runtime behavior:
//! calls inside closures are attributed to the enclosing function
//! (closures built on the hot path are assumed invoked), and every
//! same-name candidate is kept during resolution (see
//! [`crate::callgraph`]).

use crate::lexer::{Lexed, TokKind, Token};
use crate::lints::{in_test, matching_brace, nesting_delta, test_line_ranges};

/// How a call expression names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `.name(...)` — a method call on some receiver expression.
    Method(String),
    /// `name(...)` — a bare call (free function, closure, or tuple
    /// constructor like `Some`).
    Bare(String),
    /// `a::b::name(...)` — a path call; all segments in source order.
    Path(Vec<String>),
}

impl Callee {
    /// The final path segment — the function name being invoked.
    pub fn name(&self) -> &str {
        match self {
            Callee::Method(n) | Callee::Bare(n) => n,
            Callee::Path(segs) => segs.last().map(String::as_str).unwrap_or(""),
        }
    }

    /// Renders the callee the way the source spells it.
    pub fn display(&self) -> String {
        match self {
            Callee::Method(n) => format!(".{n}()"),
            Callee::Bare(n) => format!("{n}()"),
            Callee::Path(segs) => format!("{}()", segs.join("::")),
        }
    }
}

/// One analysis-relevant occurrence inside a function body.
#[derive(Debug, Clone)]
pub enum Event {
    /// A call expression.
    Call {
        callee: Callee,
        /// For method calls: the identifier immediately owning the
        /// receiver (`self.inner.lock()` → `inner`). `None` when the
        /// receiver is a compound expression.
        receiver: Option<String>,
        /// The `let` binding the enclosing statement assigns into, if
        /// any (`let guard = q.lock()` → `guard`) — guard tracking.
        binding: Option<String>,
        /// For single-identifier argument lists (`drop(guard)`): that
        /// identifier.
        arg0: Option<String>,
        line: u32,
        /// Brace depth relative to the function body (body = 1).
        depth: u32,
    },
    /// A macro invocation (`name!(..)` / `name![..]` / `name!{..}`).
    Macro { name: String, line: u32 },
    /// A slice/array index expression `expr[...]`.
    Index { line: u32 },
    /// A `}` closed, dropping back to `depth` — ends guard scopes.
    ScopeEnd { depth: u32 },
    /// A `;` at `depth` ended a statement — ends unbound temporaries.
    StmtEnd { depth: u32 },
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Crate directory name (`core`, `entropy`, …).
    pub krate: String,
    /// The `impl`/`trait` type this is a method of, if any.
    pub owner: Option<String>,
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Whether the parameter list starts with a `self` receiver.
    pub has_self: bool,
    /// Whether the item sits inside `#[cfg(test)]` / `#[test]` code.
    pub is_test: bool,
    /// Body events in source order (empty for bodyless trait methods).
    pub events: Vec<Event>,
}

impl FnItem {
    /// `Type::name` or plain `name` — how diagnostics refer to this fn.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Keywords that look like call names (`if (..)`, `match (..)`) or like
/// index receivers (`let [a, b] = ..`) but are not.
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "fn"
            | "pub"
            | "use"
            | "mod"
            | "where"
            | "impl"
            | "dyn"
            | "unsafe"
            | "box"
            | "await"
            | "yield"
    )
}

/// Parses every `fn` item of an already-lexed file.
pub fn parse_file(rel_path: &str, lexed: &Lexed) -> Vec<FnItem> {
    let krate = rel_path
        .strip_prefix("crates/")
        .and_then(|p| p.split('/').next())
        .unwrap_or("")
        .to_string();
    let tests = test_line_ranges(&lexed.tokens);
    let mut parser = Parser {
        tokens: &lexed.tokens,
        tests: &tests,
        file: rel_path,
        krate: &krate,
        items: Vec::new(),
    };
    parser.items_in(0, lexed.tokens.len(), None);
    parser.items
}

struct Parser<'a> {
    tokens: &'a [Token],
    tests: &'a [(u32, u32)],
    file: &'a str,
    krate: &'a str,
    items: Vec<FnItem>,
}

impl Parser<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.tokens.get(i)
    }

    fn is(&self, i: usize, text: &str) -> bool {
        self.tok(i).is_some_and(|t| t.text == text)
    }

    /// Skips a generic argument list whose `<` is at `i`; returns the
    /// index just past the matching close. `>>`/`<<` count ±2, which is
    /// exactly what makes `Vec<Vec<u8>>` close both lists on one token.
    fn skip_generics(&self, i: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while let Some(t) = self.tok(j) {
            match t.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                // A generic list never contains these at its own level;
                // bail out rather than swallow the rest of the file on
                // a lone `a < b` comparison.
                "{" | "}" | ";" => return i + 1,
                _ => {}
            }
            j += 1;
            if depth <= 0 {
                return j;
            }
        }
        j
    }

    /// Scans `[start, end)` for items (`fn`, `impl`, `trait`, `mod`),
    /// recursing into item bodies. `owner` is the enclosing type name.
    fn items_in(&mut self, start: usize, end: usize, owner: Option<&str>) {
        let mut i = start;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            match t.text.as_str() {
                "fn" if t.kind == TokKind::Ident => {
                    i = self.parse_fn(i, end, owner);
                }
                "impl" | "trait" if t.kind == TokKind::Ident => {
                    i = self.parse_impl_or_trait(i, end);
                }
                "mod" if t.kind == TokKind::Ident => {
                    // `mod name { .. }`: recurse without an owner;
                    // `mod name;` declarations just advance.
                    let mut j = i + 1;
                    while j < end && !self.is(j, "{") && !self.is(j, ";") {
                        j += 1;
                    }
                    if self.is(j, "{") {
                        let close = matching_brace(self.tokens, j).unwrap_or(end);
                        self.items_in(j + 1, close.min(end), None);
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                }
                _ => i += 1,
            }
        }
    }

    /// Parses the header of an `impl`/`trait` block, extracts the type
    /// name, and recurses into its body for methods.
    fn parse_impl_or_trait(&mut self, at: usize, end: usize) -> usize {
        let mut j = at + 1;
        if self.is(j, "<") {
            j = self.skip_generics(j);
        }
        // Collect path idents up to the body; the owner is the last
        // segment of the path after `for` (trait impls) or of the only
        // path (inherent impls / trait declarations).
        let mut before_for: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut seen_for = false;
        while j < end && !self.is(j, "{") && !self.is(j, ";") {
            let t = &self.tokens[j];
            if t.is_ident("for") {
                seen_for = true;
            } else if t.is_ident("where") {
                break;
            } else if t.kind == TokKind::Ident && !is_keyword(&t.text) {
                let slot = if seen_for { &mut after_for } else { &mut before_for };
                *slot = Some(t.text.clone());
                if self.is(j + 1, "<") {
                    j = self.skip_generics(j + 1);
                    continue;
                }
            }
            j += 1;
        }
        while j < end && !self.is(j, "{") && !self.is(j, ";") {
            j += 1;
        }
        if !self.is(j, "{") {
            return j + 1;
        }
        let owner = after_for.or(before_for);
        let close = matching_brace(self.tokens, j).unwrap_or(end);
        self.items_in(j + 1, close.min(end), owner.as_deref());
        close + 1
    }

    /// Parses one `fn` starting at the `fn` keyword; returns the index
    /// just past the item.
    fn parse_fn(&mut self, at: usize, end: usize, owner: Option<&str>) -> usize {
        let mut j = at + 1;
        let Some(name_tok) = self.tok(j) else { return at + 1 };
        if name_tok.kind != TokKind::Ident {
            // `fn(` — a function-pointer type, not an item.
            return at + 1;
        }
        let name = name_tok.text.clone();
        let line = self.tokens[at].line;
        j += 1;
        if self.is(j, "<") {
            j = self.skip_generics(j);
        }
        if !self.is(j, "(") {
            return at + 1;
        }
        // Parameter list: `self` anywhere before the first top-level
        // comma marks a method receiver.
        let params_open = j;
        let mut depth = 0i32;
        let mut has_self = false;
        let mut first_param = true;
        while j < end {
            let t = &self.tokens[j];
            depth += nesting_delta(t);
            if depth == 1 && t.is_punct(",") {
                first_param = false;
            }
            if first_param && t.is_ident("self") {
                has_self = true;
            }
            if depth == 0 && j > params_open {
                break;
            }
            j += 1;
        }
        j += 1; // past `)`
                // Return type / where clause: scan to the body or `;`.
        while j < end && !self.is(j, "{") && !self.is(j, ";") {
            if self.is(j, "<") {
                j = self.skip_generics(j);
            } else {
                j += 1;
            }
        }
        let is_test = in_test(self.tests, line);
        if self.is(j, ";") {
            self.items.push(FnItem {
                file: self.file.to_string(),
                krate: self.krate.to_string(),
                owner: owner.map(str::to_string),
                name,
                line,
                has_self,
                is_test,
                events: Vec::new(),
            });
            return j + 1;
        }
        if !self.is(j, "{") {
            return j;
        }
        let close = matching_brace(self.tokens, j).unwrap_or(end);
        let events = self.body_events(j, close.min(end));
        // Nested `fn` items inside the body become their own items
        // (their tokens were skipped by `body_events`).
        self.collect_nested_fns(j + 1, close.min(end), owner);
        self.items.push(FnItem {
            file: self.file.to_string(),
            krate: self.krate.to_string(),
            owner: owner.map(str::to_string),
            name,
            line,
            has_self,
            is_test,
            events,
        });
        close + 1
    }

    /// Finds `fn` items nested inside a body and parses each.
    fn collect_nested_fns(&mut self, start: usize, end: usize, owner: Option<&str>) {
        let mut i = start;
        while i < end {
            if self.is(i, "fn") && self.tok(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
                i = self.parse_fn(i, end, owner);
            } else {
                i += 1;
            }
        }
    }

    /// Extracts the event stream of a body whose `{` is at `open`.
    fn body_events(&self, open: usize, close: usize) -> Vec<Event> {
        let mut events = Vec::new();
        let mut depth: u32 = 1;
        // The `let` binding of the current statement, if any.
        let mut binding: Option<String> = None;
        let mut binding_depth: u32 = 0;
        let mut j = open + 1;
        while j < close {
            let t = &self.tokens[j];
            match t.text.as_str() {
                "{" if t.kind == TokKind::Punct => depth += 1,
                "}" if t.kind == TokKind::Punct => {
                    depth = depth.saturating_sub(1);
                    events.push(Event::ScopeEnd { depth });
                }
                ";" if t.kind == TokKind::Punct => {
                    if depth <= binding_depth {
                        binding = None;
                    }
                    events.push(Event::StmtEnd { depth });
                }
                "let" if t.kind == TokKind::Ident => {
                    // `let [mut] name =` — remember the binding.
                    let mut k = j + 1;
                    if self.is(k, "mut") {
                        k += 1;
                    }
                    if self.tok(k).is_some_and(|n| n.kind == TokKind::Ident && !is_keyword(&n.text))
                    {
                        binding = Some(self.tokens[k].text.clone());
                        binding_depth = depth;
                    }
                }
                "fn" if t.kind == TokKind::Ident
                    && self.tok(j + 1).is_some_and(|n| n.kind == TokKind::Ident) =>
                {
                    // A nested fn item: its events belong to itself
                    // (collected separately), not to this body.
                    let mut k = j + 2;
                    while k < close && !self.is(k, "{") && !self.is(k, ";") {
                        k += 1;
                    }
                    if self.is(k, "{") {
                        j = matching_brace(self.tokens, k).unwrap_or(close);
                    } else {
                        j = k;
                    }
                }
                "." if t.kind == TokKind::Punct => {
                    if let Some(event) = self.method_call(j, close, depth, &binding) {
                        events.push(event);
                    }
                }
                "[" if t.kind == TokKind::Punct && self.is_index_position(j) => {
                    events.push(Event::Index { line: t.line });
                }
                _ if t.kind == TokKind::Ident && !is_keyword(&t.text) => {
                    let prev = j.checked_sub(1).and_then(|p| self.tok(p));
                    let after_sep = prev.is_some_and(|p| p.is_punct(".") || p.is_punct("::"));
                    if !after_sep {
                        if let Some((event, next)) =
                            self.path_call_or_macro(j, close, depth, &binding)
                        {
                            events.push(event);
                            j = next;
                            continue;
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
        events
    }

    /// `.name(` or `.name::<..>(` starting at the `.` token.
    fn method_call(
        &self,
        dot: usize,
        close: usize,
        depth: u32,
        binding: &Option<String>,
    ) -> Option<Event> {
        let name_tok = self.tok(dot + 1)?;
        if name_tok.kind != TokKind::Ident {
            return None;
        }
        let mut k = dot + 2;
        if self.is(k, "::") && self.is(k + 1, "<") {
            k = self.skip_generics(k + 1);
        }
        if !self.is(k, "(") || k >= close {
            return None;
        }
        let receiver = self.receiver_ident(dot);
        Some(Event::Call {
            callee: Callee::Method(name_tok.text.clone()),
            receiver,
            binding: binding.clone(),
            arg0: self.lone_arg_ident(k),
            line: name_tok.line,
            depth,
        })
    }

    /// The identifier that syntactically owns the receiver of a method
    /// call whose `.` is at `dot`: `self.inner.lock()` → `inner`,
    /// `queues[i].pop()` → `queues`.
    fn receiver_ident(&self, dot: usize) -> Option<String> {
        let mut p = dot.checked_sub(1)?;
        // Step back over one `[..]` index suffix.
        if self.is(p, "]") {
            let mut d = 0i32;
            loop {
                d += match self.tokens[p].text.as_str() {
                    "]" => -1,
                    "[" => 1,
                    _ => 0,
                };
                if d == 0 || p == 0 {
                    break;
                }
                p -= 1;
            }
            p = p.checked_sub(1)?;
        }
        let t = self.tok(p)?;
        (t.kind == TokKind::Ident && !is_keyword(&t.text)).then(|| t.text.clone())
    }

    /// If the argument list opening at `paren` is a single identifier,
    /// returns it (`drop(guard)` → `guard`).
    fn lone_arg_ident(&self, paren: usize) -> Option<String> {
        let arg = self.tok(paren + 1)?;
        if arg.kind == TokKind::Ident && self.is(paren + 2, ")") && !is_keyword(&arg.text) {
            Some(arg.text.clone())
        } else {
            None
        }
    }

    /// A bare/path call `a::b::name(..)` or macro `name!(..)` whose
    /// first segment is at `i`. Returns the event and the index to
    /// resume scanning from (start of the argument list).
    fn path_call_or_macro(
        &self,
        i: usize,
        close: usize,
        depth: u32,
        binding: &Option<String>,
    ) -> Option<(Event, usize)> {
        let mut segs = vec![self.tokens[i].text.clone()];
        let mut k = i + 1;
        loop {
            if self.is(k, "::") {
                if let Some(n) = self.tok(k + 1) {
                    if n.kind == TokKind::Ident && !is_keyword(&n.text) {
                        segs.push(n.text.clone());
                        k += 2;
                        continue;
                    }
                    if n.is_punct("<") {
                        k = self.skip_generics(k + 1);
                        continue;
                    }
                }
            }
            break;
        }
        if k >= close {
            return None;
        }
        if self.is(k, "!") {
            let opener = self.tok(k + 1)?;
            if opener.is_punct("(") || opener.is_punct("[") || opener.is_punct("{") {
                let name = segs.pop().unwrap_or_default();
                return Some((Event::Macro { name, line: self.tokens[i].line }, k + 1));
            }
            return None;
        }
        if !self.is(k, "(") {
            return None;
        }
        let callee =
            if segs.len() == 1 { Callee::Bare(segs.remove(0)) } else { Callee::Path(segs) };
        Some((
            Event::Call {
                callee,
                receiver: None,
                binding: binding.clone(),
                arg0: self.lone_arg_ident(k),
                line: self.tokens[i].line,
                depth,
            },
            k,
        ))
    }

    /// Whether the `[` at `i` opens an index expression (receiver is a
    /// value) rather than an attribute, type, pattern, or array literal.
    fn is_index_position(&self, i: usize) -> bool {
        let Some(p) = i.checked_sub(1).and_then(|p| self.tok(p)) else { return false };
        match p.kind {
            TokKind::Ident => !is_keyword(&p.text),
            TokKind::Punct => p.text == ")" || p.text == "]",
            TokKind::Literal => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnItem> {
        parse_file("crates/core/src/demo.rs", &lex(src))
    }

    fn calls(item: &FnItem) -> Vec<String> {
        item.events
            .iter()
            .filter_map(|e| match e {
                Event::Call { callee, .. } => Some(callee.display()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn extracts_free_fns_and_methods() {
        let src = r#"
pub fn free(x: u8) -> u8 { helper(x) }
struct S;
impl S {
    pub fn method(&self) -> u8 { self.other() }
    fn other(&self) -> u8 { 1 }
}
impl Display for S {
    fn fmt(&self, f: &mut Formatter<'_>) -> Result { write!(f, "s") }
}
trait T {
    fn required(&self);
    fn provided(&self) { self.required() }
}
"#;
        let items = parse(src);
        let names: Vec<String> = items.iter().map(FnItem::qualified).collect();
        assert!(names.contains(&"free".to_string()));
        assert!(names.contains(&"S::method".to_string()));
        assert!(names.contains(&"S::fmt".to_string()), "trait impl owner is the `for` type");
        assert!(names.contains(&"T::required".to_string()), "bodyless trait fn is an item");
        assert!(names.contains(&"T::provided".to_string()));
        let free = items.iter().find(|i| i.name == "free").unwrap();
        assert!(!free.has_self);
        assert_eq!(calls(free), vec!["helper()"]);
        let method = items.iter().find(|i| i.name == "method").unwrap();
        assert!(method.has_self);
        assert_eq!(calls(method), vec![".other()"]);
    }

    #[test]
    fn nested_generics_split_shift_right() {
        // `Vec<Vec<u8>>` lexes its close as one `>>`; the parser must
        // still find the parameter list and the body.
        let src = "fn f(v: Vec<Vec<u8>>, m: Map<A, Set<B>>) -> Vec<Vec<u8>> { v.push(g()); }";
        let items = parse(src);
        assert_eq!(items.len(), 1);
        assert_eq!(calls(&items[0]), vec![".push()", "g()"]);
    }

    #[test]
    fn generic_fns_and_turbofish_calls() {
        let src = r#"
fn generic<T: Into<Vec<Vec<u8>>>>(x: T) {
    let v = x.collect::<Vec<Vec<u8>>>();
    let w = Vec::<u8>::with_capacity(4);
    take::<u8>(1);
}
"#;
        let items = parse(src);
        assert_eq!(calls(&items[0]), vec![".collect()", "Vec::with_capacity()", "take()"]);
    }

    #[test]
    fn raw_identifiers_do_not_confuse_items() {
        let src = "fn f() { let r#fn = 1; let r#match = r#fn + 1; g(r#match); }";
        let items = parse(src);
        assert_eq!(items.len(), 1, "r#fn must not open a phantom item");
        assert!(calls(&items[0]).contains(&"g()".to_string()));
    }

    #[test]
    fn index_positions_are_expressions_only() {
        let src = r#"
fn f(xs: &[u8], m: &mut [u64; 256]) -> u8 {
    #[allow(dead_code)]
    let a: [u8; 2] = [1, 2];
    let [lo, hi] = split(xs);
    m[3] = xs[0] as u64;
    table()[1]
}
"#;
        let items = parse(src);
        let indexes = items[0].events.iter().filter(|e| matches!(e, Event::Index { .. })).count();
        assert_eq!(indexes, 3, "m[3], xs[0], table()[1] — not types, patterns, or literals");
    }

    #[test]
    fn macros_are_not_calls() {
        let src = r#"fn f() { panic!("boom"); vec![1, 2]; assert_eq!(a, b); g(); }"#;
        let items = parse(src);
        let macros: Vec<&str> = items[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Macro { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(macros, vec!["panic", "vec", "assert_eq"]);
        assert_eq!(calls(&items[0]), vec!["g()"]);
    }

    #[test]
    fn not_equal_is_not_a_macro() {
        let src = "fn f(a: u8, b: u8) -> bool { a != b }";
        let items = parse(src);
        assert!(items[0].events.iter().all(|e| !matches!(e, Event::Macro { .. })));
    }

    #[test]
    fn bindings_and_receivers_feed_lock_tracking() {
        let src = r#"
fn f(&self) {
    let mut guard = self.inner.lock();
    guard.push(1);
    drop(guard);
    self.not_empty.notify_one();
}
"#;
        let items = parse(src);
        let locks: Vec<(Option<&str>, Option<&str>)> = items[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call { callee, receiver, binding, .. } if callee.name() == "lock" => {
                    Some((receiver.as_deref(), binding.as_deref()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(locks, vec![(Some("inner"), Some("guard"))]);
        let drops: Vec<Option<&str>> = items[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call { callee, arg0, .. } if callee.name() == "drop" => {
                    Some(arg0.as_deref())
                }
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![Some("guard")]);
    }

    #[test]
    fn nested_fns_own_their_events() {
        let src = r#"
fn outer() {
    fn inner() { dirty(); }
    clean();
}
"#;
        let items = parse(src);
        let outer = items.iter().find(|i| i.name == "outer").unwrap();
        let inner = items.iter().find(|i| i.name == "inner").unwrap();
        assert_eq!(calls(outer), vec!["clean()"]);
        assert_eq!(calls(inner), vec!["dirty()"]);
    }

    #[test]
    fn test_items_are_marked() {
        let src = r#"
fn lib() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); }
}
"#;
        let items = parse(src);
        assert!(!items.iter().find(|i| i.name == "lib").unwrap().is_test);
        assert!(items.iter().find(|i| i.name == "t").unwrap().is_test);
    }
}
