//! The rule set and the per-file analysis context.
//!
//! Three rules, each enforcing a workspace invariant that no rustc or
//! clippy lint expresses:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `shim-surface-drift` | shims export only what the workspace uses |
//! | `no-alloc-in-episode-loop` | `// lint: hot-loop` regions never allocate |
//! | `atomic-ordering-justified` | atomic orderings carry `// ordering:` comments |
//!
//! R4 and R6 are here; R9 is [`crate::atomics`]. (R1–R3 and R5 are clippy
//! and rustc lints, R7 and R8 the debug-build lock ranks of
//! `roulette_core::sync`; DESIGN.md §8.)
//!
//! Rules operate on the token stream of [`crate::lexer`], so matches inside
//! strings, chars, and comments are structurally impossible. Violations can
//! be suppressed at a site with `// lint:allow(<rule>)` on the same line or
//! the line above.

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::report::Violation;
use std::collections::{HashMap, HashSet};

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Kebab-case rule name, used in `lint:allow(...)`.
    pub name: &'static str,
    /// One-line summary for `roulette-lint rules`.
    pub summary: &'static str,
}

/// Rule R4.
pub const SHIM_SURFACE_DRIFT: &str = "shim-surface-drift";
/// Rule R6.
pub const NO_ALLOC_IN_EPISODE_LOOP: &str = "no-alloc-in-episode-loop";
/// Rule R9.
pub const ATOMIC_ORDERING_JUSTIFIED: &str = "atomic-ordering-justified";

/// The rule registry. Every rule denies: any violation fails the check.
pub const RULES: &[Rule] = &[
    Rule {
        name: SHIM_SURFACE_DRIFT,
        summary: "every pub item a shim exports must be referenced from the workspace",
    },
    Rule {
        name: NO_ALLOC_IN_EPISODE_LOOP,
        summary: "Vec::new/vec![/.clone()/.to_vec() are banned inside `// lint: hot-loop` \
                  regions; draw from the EpisodeScratch arena instead",
    },
    Rule {
        name: ATOMIC_ORDERING_JUSTIFIED,
        summary: "every non-Relaxed atomic ordering (and Relaxed on non-counter atomics) \
                  needs an `// ordering:` comment naming the access it pairs with",
    },
];

/// One lexed source file plus the derived facts every rule needs.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Token stream and comments.
    pub lexed: Lexed,
    /// Token-index ranges `[start, end)` covered by `#[cfg(test)]` (or a
    /// bare `#[test]`) items.
    pub test_spans: Vec<(usize, usize)>,
    /// `lint:allow(rule)` escapes: line → allowed rule names. An allow on
    /// line `L` suppresses violations on `L` and `L + 1`.
    pub allows: HashMap<u32, Vec<String>>,
    /// Lines covered by a comment (or doc comment) containing `ordering:`,
    /// the R9 justification marker.
    pub ordering_lines: HashSet<u32>,
}

/// Grows `marked` through every contiguous run of comment lines (`all`)
/// touching a marked line, in both directions.
fn extend_through_block(marked: &mut HashSet<u32>, all: &HashSet<u32>) {
    let seeds: Vec<u32> = marked.iter().copied().collect();
    for s in seeds {
        let mut l = s + 1;
        while all.contains(&l) && marked.insert(l) {
            l += 1;
        }
        let mut l = s.saturating_sub(1);
        while l > 0 && all.contains(&l) && marked.insert(l) {
            l -= 1;
        }
    }
}

impl SourceFile {
    /// Lexes `src` and precomputes test spans, allow escapes, and
    /// `ordering:` comment lines.
    pub fn new(rel_path: impl Into<String>, src: &str) -> SourceFile {
        let lexed = lex(src);
        let test_spans = find_test_spans(&lexed.toks);
        let mut allows: HashMap<u32, Vec<String>> = HashMap::new();
        let mut ordering_lines = HashSet::new();
        for c in &lexed.comments {
            for rule in parse_allows(&c.text) {
                allows.entry(c.end_line).or_default().push(rule);
            }
            if c.text.contains("ordering:") {
                ordering_lines.extend(c.line..=c.end_line);
            }
        }
        // A marker covers its whole contiguous run of line comments, not
        // just its own line: justification prose wraps, and the rule
        // windows measure from the block's last line.
        let comment_lines: HashSet<u32> =
            lexed.comments.iter().flat_map(|c| c.line..=c.end_line).collect();
        extend_through_block(&mut ordering_lines, &comment_lines);
        for t in &lexed.toks {
            if t.kind == TokKind::DocComment && t.text.contains("ordering:") {
                ordering_lines.insert(t.line);
            }
        }
        SourceFile {
            rel_path: rel_path.into(),
            lexed,
            test_spans,
            allows,
            ordering_lines,
        }
    }

    /// True when token `idx` falls inside a `#[cfg(test)]` item.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| idx >= s && idx < e)
    }

    /// True when a `lint:allow(rule)` escape covers `line`.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.allows.get(l).is_some_and(|rs| rs.iter().any(|r| r == rule))
        })
    }

    fn toks(&self) -> &[Tok] {
        &self.lexed.toks
    }
}

/// Extracts rule names from every `lint:allow(a, b)` occurrence in a
/// comment.
fn parse_allows(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(i) = rest.find("lint:allow(") {
        rest = &rest[i + "lint:allow(".len()..];
        if let Some(close) = rest.find(')') {
            out.extend(
                rest[..close]
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string),
            );
            rest = &rest[close + 1..];
        } else {
            break;
        }
    }
    out
}

/// Finds token spans covered by `#[cfg(test)]`-gated (or `#[test]`-gated)
/// items, so rules can skip test-only code.
fn find_test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let attr_end = match matching_close(toks, i + 1, '[', ']') {
                Some(e) => e,
                None => break,
            };
            let body = &toks[i + 2..attr_end];
            let has = |name: &str| body.iter().any(|t| t.is_ident(name));
            let is_test_attr =
                (has("cfg") && has("test")) || (body.len() == 1 && body[0].is_ident("test"));
            if is_test_attr {
                if let Some(end) = item_end(toks, attr_end + 1) {
                    spans.push((i, end));
                    i = end;
                    continue;
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// Given the index of an opening delimiter, returns the index of its
/// matching closer.
pub(crate) fn matching_close(toks: &[Tok], open: usize, oc: char, cc: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(oc) {
            depth += 1;
        } else if t.is_punct(cc) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Finds the end (exclusive token index) of the item starting at `from`:
/// skips further attributes and doc comments, then scans to the item's
/// closing `}` or to a top-level `;`.
fn item_end(toks: &[Tok], mut from: usize) -> Option<usize> {
    // Skip stacked attributes and doc comments on the item.
    loop {
        match toks.get(from) {
            Some(t) if t.kind == TokKind::DocComment => from += 1,
            Some(t) if t.is_punct('#') => {
                from = matching_close(toks, from + 1, '[', ']')? + 1;
            }
            _ => break,
        }
    }
    let mut j = from;
    let mut depth = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        } else if t.is_punct(';') && depth == 0 {
            return Some(j + 1);
        }
        j += 1;
    }
    Some(j)
}

/// The marker comment that opens an R6 hot-loop region. The region covers
/// the item (function, loop, or statement) starting at the first token
/// after the marker, through its closing brace or terminating `;`.
pub const HOT_LOOP_MARKER: &str = "lint: hot-loop";

/// R6: heap allocation inside `// lint: hot-loop` regions, in any file.
/// The episode loop's steady state must draw every buffer from the
/// `EpisodeScratch` arena; a `Vec::new`, `vec![…]`, `.clone()`, or
/// `.to_vec()` sneaking into a marked region is a per-vector allocation
/// regression that no profiler run will catch before it ships.
pub fn check_no_alloc_in_episode_loop(file: &SourceFile, out: &mut Vec<Violation>) {
    let toks = file.toks();
    // Marked regions: token span of the item following each marker.
    let mut regions: Vec<(usize, usize)> = Vec::new();
    for c in &file.lexed.comments {
        if !c.text.contains(HOT_LOOP_MARKER) {
            continue;
        }
        if let Some(start) = toks.iter().position(|t| t.line > c.end_line) {
            if let Some(end) = item_end(toks, start) {
                regions.push((start, end));
            }
        }
    }
    for &(start, end) in &regions {
        for i in start..end.min(toks.len()) {
            if file.in_test(i) {
                continue;
            }
            let t = &toks[i];
            let prev = i.checked_sub(1).map(|p| &toks[p]);
            let next = toks.get(i + 1);
            let mut report = |what: &str| {
                out.push(Violation {
                    file: file.rel_path.clone(),
                    line: t.line,
                    rule: NO_ALLOC_IN_EPISODE_LOOP,
                    message: format!(
                        "{what} allocates inside a `// {HOT_LOOP_MARKER}` region; take a \
                         pooled buffer from the `EpisodeScratch` arena instead"
                    ),
                });
            };
            if t.is_ident("vec") && next.is_some_and(|n| n.is_punct('!')) {
                report("`vec![…]`");
            } else if t.is_ident("Vec") && next.is_some_and(|n| n.is_punct(':')) {
                if let Some(ctor) = assoc_fn_after_path(toks, i + 1) {
                    if ctor == "new" || ctor == "with_capacity" {
                        report(&format!("`Vec::{ctor}`"));
                    }
                }
            } else if t.kind == TokKind::Ident
                && (t.text == "clone" || t.text == "to_vec" || t.text == "to_owned")
                && prev.is_some_and(|p| p.is_punct('.'))
                && next.is_some_and(|n| n.is_punct('('))
            {
                report(&format!("`.{}()`", t.text));
            }
        }
    }
}

/// Resolves the associated-function name at the end of a `::`-path starting
/// at the `:` token `i` (handles the turbofish: `Vec::<T>::new`). Returns
/// `None` when the tokens do not form `:: [\<…\> ::] ident`.
fn assoc_fn_after_path(toks: &[Tok], i: usize) -> Option<&str> {
    let mut j = i;
    if !(toks.get(j)?.is_punct(':') && toks.get(j + 1)?.is_punct(':')) {
        return None;
    }
    j += 2;
    if toks.get(j)?.is_punct('<') {
        j = matching_close(toks, j, '<', '>')? + 1;
        if !(toks.get(j)?.is_punct(':') && toks.get(j + 1)?.is_punct(':')) {
            return None;
        }
        j += 2;
    }
    let t = toks.get(j)?;
    (t.kind == TokKind::Ident).then_some(t.text.as_str())
}

/// A `pub` item exported by a shim: name and definition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubItem {
    /// Exported identifier.
    pub name: String,
    /// 1-based definition line.
    pub line: u32,
}

/// R4 (collection half): the `pub` surface of one shim file — top-level
/// items, impl-block methods, `pub use` re-exports, and `#[macro_export]`
/// macros. `pub(crate)`/`pub(super)` items are not part of the exported
/// surface and are skipped.
pub fn collect_pub_items(file: &SourceFile) -> Vec<PubItem> {
    let toks = file.toks();
    let mut items = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if file.in_test(i) {
            i += 1;
            continue;
        }
        // #[macro_export] macro_rules! name
        if t.is_ident("macro_rules")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && toks[..i].iter().rev().take(8).any(|p| p.is_ident("macro_export"))
        {
            if let Some(name) = toks.get(i + 2) {
                items.push(PubItem { name: name.text.clone(), line: name.line });
            }
            i += 3;
            continue;
        }
        if !t.is_ident("pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // pub(crate) / pub(super) / pub(in …) → not exported.
        if toks.get(j).is_some_and(|n| n.is_punct('(')) {
            i = matching_close(toks, j, '(', ')').map_or(toks.len(), |e| e + 1);
            continue;
        }
        // Skip qualifiers: const fn, unsafe fn, async fn, extern "C" fn.
        loop {
            match toks.get(j) {
                Some(n) if n.is_ident("unsafe") || n.is_ident("async") => j += 1,
                Some(n) if n.is_ident("extern") => {
                    j += 1;
                    if toks.get(j).is_some_and(|s| s.kind == TokKind::Str) {
                        j += 1;
                    }
                }
                Some(n)
                    if n.is_ident("const")
                        && toks.get(j + 1).is_some_and(|f| f.is_ident("fn")) =>
                {
                    j += 1
                }
                _ => break,
            }
        }
        match toks.get(j).map(|t| t.text.as_str()) {
            Some("fn" | "struct" | "enum" | "trait" | "type" | "const" | "union" | "mod") => {
                if let Some(name) = toks.get(j + 1) {
                    if name.kind == TokKind::Ident {
                        items.push(PubItem { name: name.text.clone(), line: name.line });
                    }
                }
                i = j + 2;
            }
            Some("static") => {
                let mut k = j + 1;
                if toks.get(k).is_some_and(|m| m.is_ident("mut")) {
                    k += 1;
                }
                if let Some(name) = toks.get(k) {
                    items.push(PubItem { name: name.text.clone(), line: name.line });
                }
                i = k + 1;
            }
            Some("use") => {
                // Export the identifier immediately preceding each `,`,
                // `}`, or the final `;` — this resolves `a as b` to `b`
                // and ignores globs.
                let mut k = j + 1;
                let mut last: Option<&Tok> = None;
                while k < toks.len() {
                    let u = &toks[k];
                    if u.is_punct(';') || u.is_punct(',') || u.is_punct('}') {
                        if let Some(id) = last.take() {
                            if id.text != "self" {
                                items.push(PubItem {
                                    name: id.text.clone(),
                                    line: id.line,
                                });
                            }
                        }
                        if u.is_punct(';') {
                            break;
                        }
                    } else if u.kind == TokKind::Ident {
                        last = Some(u);
                    } else if u.is_punct('*') {
                        last = None;
                    }
                    k += 1;
                }
                i = k + 1;
            }
            _ => i = j + 1,
        }
    }
    items
}

/// Identifiers appearing inside `#[macro_export] macro_rules!` bodies.
/// Exported macros expand at workspace call sites, so for R4 these tokens
/// count as workspace references even though they live in a shim file.
/// The macro's own name is *not* included — an exported macro nobody
/// invokes is still drift.
pub fn exported_macro_body_idents(file: &SourceFile) -> Vec<String> {
    let toks = file.toks();
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("macro_rules")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && toks[..i].iter().rev().take(8).any(|p| p.is_ident("macro_export"))
        {
            // Body is the `{ … }` after the macro name.
            if let Some(open) = (i + 2..toks.len()).find(|&j| toks[j].is_punct('{')) {
                if let Some(close) = matching_close(toks, open, '{', '}') {
                    out.extend(
                        toks[open..close]
                            .iter()
                            .filter(|t| t.kind == TokKind::Ident)
                            .map(|t| t.text.clone()),
                    );
                    i = close;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// R4 (matching half): reports shim pub items whose names never appear in
/// the non-shim reference corpus. One report per name per file.
pub fn check_shim_surface(
    file: &SourceFile,
    referenced: &HashSet<String>,
    out: &mut Vec<Violation>,
) {
    let mut seen = HashSet::new();
    for item in collect_pub_items(file) {
        if referenced.contains(&item.name) || !seen.insert(item.name.clone()) {
            continue;
        }
        out.push(Violation {
            file: file.rel_path.clone(),
            line: item.line,
            rule: SHIM_SURFACE_DRIFT,
            message: format!(
                "shim exports `{}` but nothing in the workspace references it; shims must \
                 mirror only the API subset the repo uses — delete it or add the caller",
                item.name
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_rule(
        path: &str,
        src: &str,
        rule: fn(&SourceFile, &mut Vec<Violation>),
    ) -> Vec<Violation> {
        let f = SourceFile::new(path, src);
        let mut out = Vec::new();
        rule(&f, &mut out);
        out.retain(|v| !f.allowed(v.rule, v.line));
        out
    }

    const HOT: &str = "crates/exec/src/episode.rs";

    // ---- R6 fixtures -------------------------------------------------

    #[test]
    fn r6_flags_allocation_inside_marked_regions_only() {
        let src = r#"
fn cold() -> Vec<u32> {
    let v = Vec::new(); // unmarked: allocation is fine here
    v
}
// lint: hot-loop
fn hot(xs: &[u32], scratch: &mut Vec<u32>) -> Vec<u32> {
    let a: Vec<u32> = Vec::new();
    let b = Vec::<u32>::with_capacity(4);
    let c = vec![1u32];
    let d = xs.to_vec();
    let e = a.clone();
    e
}
fn also_cold(xs: &[u32]) -> Vec<u32> { xs.to_vec() }
"#;
        let v = run_rule(HOT, src, check_no_alloc_in_episode_loop);
        assert_eq!(v.len(), 5, "{v:?}");
        assert!(v.iter().all(|x| (8..=12).contains(&x.line)), "{v:?}");
    }

    #[test]
    fn r6_marker_covers_loops_and_respects_allow_and_tests() {
        let src = r#"
fn f(xs: &[u32]) {
    // lint: hot-loop
    for x in xs {
        let v = vec![*x];
        let w = v.clone(); // lint:allow(no-alloc-in-episode-loop) — cold branch
        drop(w);
    }
    let after = vec![1]; // after the loop's closing brace: unmarked
    drop(after);
}

#[cfg(test)]
mod tests {
    // lint: hot-loop
    fn g() { let v = Vec::new(); drop(v); }
}
"#;
        let v = run_rule(HOT, src, check_no_alloc_in_episode_loop);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
        assert!(v[0].message.contains("vec!"));
    }

    #[test]
    fn r6_applies_wherever_a_region_is_marked() {
        let marked = "// lint: hot-loop\nfn f() -> Vec<u8> { Vec::new() }";
        let path = "crates/query/src/parser.rs";
        assert_eq!(run_rule(path, marked, check_no_alloc_in_episode_loop).len(), 1);
        let unmarked = "fn f() -> Vec<u8> { Vec::new() }";
        assert!(run_rule(path, unmarked, check_no_alloc_in_episode_loop).is_empty());
    }

    #[test]
    fn r6_ignores_non_allocating_lookalikes() {
        let src = r#"
// lint: hot-loop
fn f(xs: &mut Vec<u32>, s: &str) -> usize {
    xs.clear();
    let n = s.len(); // "vec![" and Vec::new() in a string are not tokens
    xs.capacity() + n
}
"#;
        let v = run_rule(HOT, src, check_no_alloc_in_episode_loop);
        assert!(v.is_empty(), "{v:?}");
    }

    // ---- R4 fixtures -------------------------------------------------

    #[test]
    fn r4_collects_top_level_items_methods_and_reexports() {
        let src = r#"
pub struct Rng { seed: u64 }
impl Rng {
    pub fn new(seed: u64) -> Self { Rng { seed } }
    pub(crate) fn internal(&self) {}
    pub const fn width() -> usize { 64 }
}
pub use std::hint::black_box;
pub use other::{alpha, beta as gamma, *};
pub trait SampleUniform {}
pub mod distributions;
pub(crate) fn helper() {}
pub static SEED: u64 = 1;
"#;
        let f = SourceFile::new("shims/rand/src/lib.rs", src);
        let names: Vec<String> =
            collect_pub_items(&f).into_iter().map(|i| i.name).collect();
        assert_eq!(
            names,
            ["Rng", "new", "width", "black_box", "alpha", "gamma", "SampleUniform",
             "distributions", "SEED"]
        );
    }

    #[test]
    fn r4_reports_unreferenced_surface_only() {
        let f = SourceFile::new(
            "shims/rand/src/lib.rs",
            "pub fn used() {}\npub fn orphan() {}\n",
        );
        let referenced: HashSet<String> = ["used".to_string()].into_iter().collect();
        let mut out = Vec::new();
        check_shim_surface(&f, &referenced, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("orphan"));
        assert_eq!(out[0].line, 2);
    }

    // ---- shared machinery --------------------------------------------

    #[test]
    fn allow_parsing_handles_lists() {
        assert_eq!(
            parse_allows("// lint:allow(a, b) then lint:allow(c)"),
            ["a", "b", "c"]
        );
        assert!(parse_allows("// nothing here").is_empty());
    }

    #[test]
    fn test_spans_cover_gated_fns_and_mods() {
        let src = r#"
fn live() {}
#[cfg(test)]
fn gated() { let x: Vec<u32> = vec![]; x[0]; }
#[cfg(all(test, feature = "x"))]
mod m { fn g() {} }
fn live2() {}
"#;
        let f = SourceFile::new("crates/x/src/a.rs", src);
        let toks = &f.lexed.toks;
        let idx_of = |name: &str| toks.iter().position(|t| t.is_ident(name)).unwrap();
        assert!(!f.in_test(idx_of("live")));
        assert!(f.in_test(idx_of("gated")));
        assert!(f.in_test(idx_of("g")));
        assert!(!f.in_test(idx_of("live2")));
    }
}
