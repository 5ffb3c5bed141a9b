//! The rule set and the per-file analysis context.
//!
//! Nine rules, each enforcing one workspace invariant:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-panic-hot-path` | the episode loop cannot reach a panic site |
//! | `unsafe-needs-safety-comment` | `unsafe` is justified or forbidden |
//! | `no-stdout-in-libs` | library crates never write to stdout/stderr |
//! | `shim-surface-drift` | shims export only what the workspace uses |
//! | `config-docs` | every public `EngineConfig` field is documented |
//! | `no-alloc-in-episode-loop` | `// lint: hot-loop` regions never allocate |
//! | `lock-order` | nested lock acquisitions follow `lock-order.toml` |
//! | `no-blocking-while-locked` | no indefinite blocking while a guard is live |
//! | `atomic-ordering-justified` | atomic orderings carry `// ordering:` comments |
//!
//! R1–R6 are per-file; R7–R9 are the cross-file concurrency analysis in
//! [`crate::conc`].
//!
//! Rules operate on the token stream of [`crate::lexer`], so matches inside
//! strings, chars, and comments are structurally impossible. Violations can
//! be suppressed at a site with `// lint:allow(<rule>)` on the same line or
//! the line above, or frozen wholesale in `lint-baseline.toml`.

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::report::{Severity, Violation};
use std::collections::{HashMap, HashSet};

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Kebab-case rule name, used in `lint:allow(...)` and the baseline.
    pub name: &'static str,
    /// Default severity (the CLI can demote a rule to warn).
    pub severity: Severity,
    /// One-line summary for `roulette-lint rules`.
    pub summary: &'static str,
}

/// Rule R1.
pub const NO_PANIC_HOT_PATH: &str = "no-panic-hot-path";
/// Rule R2.
pub const UNSAFE_NEEDS_SAFETY_COMMENT: &str = "unsafe-needs-safety-comment";
/// Rule R3.
pub const NO_STDOUT_IN_LIBS: &str = "no-stdout-in-libs";
/// Rule R4.
pub const SHIM_SURFACE_DRIFT: &str = "shim-surface-drift";
/// Rule R5.
pub const CONFIG_DOCS: &str = "config-docs";
/// Rule R6.
pub const NO_ALLOC_IN_EPISODE_LOOP: &str = "no-alloc-in-episode-loop";
/// Rule R7.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule R8.
pub const NO_BLOCKING_WHILE_LOCKED: &str = "no-blocking-while-locked";
/// Rule R9.
pub const ATOMIC_ORDERING_JUSTIFIED: &str = "atomic-ordering-justified";

/// The rule registry, in R1..R9 order.
pub const RULES: &[Rule] = &[
    Rule {
        name: NO_PANIC_HOT_PATH,
        severity: Severity::Deny,
        summary: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! and direct \
                  indexing are banned in hot-path modules outside #[cfg(test)]",
    },
    Rule {
        name: UNSAFE_NEEDS_SAFETY_COMMENT,
        severity: Severity::Deny,
        summary: "every `unsafe` needs a `// SAFETY:` comment; crates without unsafe \
                  must declare #![forbid(unsafe_code)]",
    },
    Rule {
        name: NO_STDOUT_IN_LIBS,
        severity: Severity::Deny,
        summary: "println!/print!/eprintln!/eprint!/dbg! are banned in library crates \
                  (bench, bins, examples, and tests exempt)",
    },
    Rule {
        name: SHIM_SURFACE_DRIFT,
        severity: Severity::Deny,
        summary: "every pub item a shim exports must be referenced from the workspace",
    },
    Rule {
        name: CONFIG_DOCS,
        severity: Severity::Deny,
        summary: "every public EngineConfig field must carry a doc comment",
    },
    Rule {
        name: NO_ALLOC_IN_EPISODE_LOOP,
        severity: Severity::Deny,
        summary: "Vec::new/vec![/.clone()/.to_vec() are banned inside `// lint: hot-loop` \
                  regions of hot-path modules; draw from the EpisodeScratch arena instead",
    },
    Rule {
        name: LOCK_ORDER,
        severity: Severity::Deny,
        summary: "nested lock acquisitions (direct or through calls) must follow the \
                  canonical order declared in lock-order.toml, and the inferred \
                  acquisition graph must be acyclic",
    },
    Rule {
        name: NO_BLOCKING_WHILE_LOCKED,
        severity: Severity::Deny,
        summary: "recv/recv_timeout/join/sleep/accept/socket reads and writes are banned \
                  while any Mutex/RwLock guard is live in non-test code",
    },
    Rule {
        name: ATOMIC_ORDERING_JUSTIFIED,
        severity: Severity::Deny,
        summary: "every non-Relaxed atomic ordering (and Relaxed on non-counter atomics) \
                  needs an `// ordering:` comment naming the access it pairs with",
    },
];

/// Looks up a rule by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// Modules whose panics would take down the shared global plan: the eddy's
/// episode loop and everything it calls per vector. Paths are
/// workspace-relative.
pub const HOT_PATHS: &[&str] = &[
    "crates/exec/src/episode.rs",
    "crates/exec/src/stem.rs",
    "crates/exec/src/engine.rs",
    "crates/exec/src/output.rs",
    // The router runs per tile of every leaf probe, under a STeM shard's
    // read latch.
    "crates/exec/src/router.rs",
    // The scratch arena and the pooled vector both live inside the episode
    // loop: every buffer they hand out is on the per-vector path.
    "crates/exec/src/scratch.rs",
    "crates/exec/src/vector.rs",
    // The kernel layer is the innermost loop of all: every episode's
    // filter, prune, compaction, and routing work funnels through it.
    "crates/exec/src/kernels/mod.rs",
    "crates/exec/src/kernels/pairs.rs",
    "crates/exec/src/kernels/route.rs",
    "crates/exec/src/kernels/scalar.rs",
    "crates/exec/src/kernels/wide.rs",
    "crates/exec/src/kernels/simd.rs",
    "crates/policy/src/qlearning.rs",
    "crates/core/src/relset.rs",
    "crates/core/src/queryset.rs",
    // Telemetry hooks run inside the episode loop; a panic in a recorder
    // is a panic in the engine.
    "crates/telemetry/src/events.rs",
    "crates/telemetry/src/histogram.rs",
    "crates/telemetry/src/metrics.rs",
    "crates/telemetry/src/recorder.rs",
    "crates/telemetry/src/sink.rs",
    // The serving layer multiplexes live client traffic into shared
    // sessions: a panic in a handler or the engine loop strands every
    // in-flight query on that path. Binaries (main.rs) stay exempt.
    "crates/server/src/lib.rs",
    "crates/server/src/admission.rs",
    "crates/server/src/http.rs",
    "crates/server/src/metrics.rs",
    "crates/server/src/protocol.rs",
    "crates/server/src/server.rs",
    "crates/server/src/workload.rs",
    "crates/loadgen/src/lib.rs",
    "crates/loadgen/src/client.rs",
    "crates/loadgen/src/stats.rs",
    // The streaming layer runs continuous sessions: a panic in the epoch
    // loop, the window clock, or the recovery meter kills a long-lived
    // stream mid-flight.
    "crates/stream/src/config.rs",
    "crates/stream/src/drift.rs",
    "crates/stream/src/driver.rs",
    "crates/stream/src/recovery.rs",
    "crates/stream/src/window.rs",
    "crates/stream/src/workload.rs",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const STDOUT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// Keywords that may directly precede `[` without forming an index
/// expression (`let [a, b] = …`, `&mut [T]`, `return [x]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "async", "await", "become", "box", "break", "const", "continue", "crate", "do",
    "dyn", "else", "enum", "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop",
    "macro", "match", "mod", "move", "mut", "pub", "ref", "return", "static", "struct",
    "super", "trait", "true", "type", "union", "unsafe", "use", "where", "while", "yield",
    "Self",
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
    /// Lines covered by a comment (or doc comment) containing `SAFETY:`.
    pub safety_lines: HashSet<u32>,
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
    /// Lexes `src` and precomputes test spans, allow escapes, and SAFETY
    /// comment lines.
    pub fn new(rel_path: impl Into<String>, src: &str) -> SourceFile {
        let lexed = lex(src);
        let test_spans = find_test_spans(&lexed.toks);
        let mut allows: HashMap<u32, Vec<String>> = HashMap::new();
        let mut safety_lines = HashSet::new();
        let mut ordering_lines = HashSet::new();
        for c in &lexed.comments {
            for rule in parse_allows(&c.text) {
                allows.entry(c.end_line).or_default().push(rule);
            }
            if c.text.contains("SAFETY:") {
                safety_lines.extend(c.line..=c.end_line);
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
        extend_through_block(&mut safety_lines, &comment_lines);
        extend_through_block(&mut ordering_lines, &comment_lines);
        for t in &lexed.toks {
            if t.kind == TokKind::DocComment {
                if t.text.contains("SAFETY:") {
                    safety_lines.insert(t.line);
                }
                if t.text.contains("ordering:") {
                    ordering_lines.insert(t.line);
                }
            }
        }
        SourceFile {
            rel_path: rel_path.into(),
            lexed,
            test_spans,
            allows,
            safety_lines,
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

/// R1: panics and direct indexing in hot-path modules.
pub fn check_no_panic_hot_path(file: &SourceFile, out: &mut Vec<Violation>) {
    if !HOT_PATHS.contains(&file.rel_path.as_str()) {
        return;
    }
    let toks = file.toks();
    for i in 0..toks.len() {
        if file.in_test(i) {
            continue;
        }
        let t = &toks[i];
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        let next = toks.get(i + 1);
        let mut report = |msg: String| {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: t.line,
                rule: NO_PANIC_HOT_PATH,
                message: msg,
            });
        };
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && prev.is_some_and(|p| p.is_punct('.'))
            && next.is_some_and(|n| n.is_punct('('))
        {
            report(format!(
                "`.{}()` can panic inside the episode loop; return a typed \
                 `roulette_core::Error` or restructure to make the state unrepresentable",
                t.text
            ));
        } else if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && next.is_some_and(|n| n.is_punct('!'))
        {
            report(format!(
                "`{}!` is banned in hot-path modules; surface an `Error::Internal` instead",
                t.text
            ));
        } else if t.is_punct('[') && prev.is_some_and(is_indexable) {
            report(
                "direct indexing can panic on out-of-bounds; use `.get()`/`.get_mut()` \
                 or prove bounds with an iterator"
                    .to_string(),
            );
        }
    }
}

/// The marker comment that opens an R6 hot-loop region. The region covers
/// the item (function, loop, or statement) starting at the first token
/// after the marker, through its closing brace or terminating `;`.
pub const HOT_LOOP_MARKER: &str = "lint: hot-loop";

/// R6: heap allocation inside `// lint: hot-loop` regions. The episode
/// loop's steady state must draw every buffer from the `EpisodeScratch`
/// arena; a `Vec::new`, `vec![…]`, `.clone()`, or `.to_vec()` sneaking
/// into a marked region is a per-vector allocation regression that no
/// profiler run will catch before it ships.
pub fn check_no_alloc_in_episode_loop(file: &SourceFile, out: &mut Vec<Violation>) {
    if !HOT_PATHS.contains(&file.rel_path.as_str()) {
        return;
    }
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

/// Can this token end an expression that `[` would index into?
fn is_indexable(t: &Tok) -> bool {
    match t.kind {
        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&t.text.as_str()),
        TokKind::Punct => t.text == ")" || t.text == "]",
        _ => false,
    }
}

/// R2 (per-file half): every `unsafe` keyword must have a `SAFETY:` comment
/// on its line or one of the two lines above. The per-crate
/// `#![forbid(unsafe_code)]` half lives in [`crate::workspace`] because it
/// needs crate grouping.
pub fn check_unsafe_comments(file: &SourceFile, out: &mut Vec<Violation>) {
    for (i, t) in file.toks().iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        // `forbid(unsafe_code)` / `deny(unsafe_code)` attributes mention no
        // unsafe code; the keyword only appears as `unsafe` itself.
        let covered = (t.line.saturating_sub(2)..=t.line)
            .any(|l| file.safety_lines.contains(&l));
        if !covered && !file.in_test(i) {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: t.line,
                rule: UNSAFE_NEEDS_SAFETY_COMMENT,
                message: "`unsafe` without a `// SAFETY:` comment on the same or the two \
                          preceding lines"
                    .to_string(),
            });
        }
    }
}

/// True when this file is exempt from R3 (binaries, benches, examples,
/// tests, and the bench crate are allowed to print).
pub fn stdout_exempt(rel_path: &str) -> bool {
    rel_path.starts_with("crates/bench/")
        || rel_path.starts_with("tests/")
        || rel_path.starts_with("examples/")
        || rel_path.contains("/tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/")
        || rel_path.starts_with("src/bin/")
        || rel_path.contains("/src/bin/")
        || rel_path.ends_with("/main.rs")
        || rel_path.ends_with("build.rs")
}

/// R3: stdout/stderr macros in library code.
pub fn check_no_stdout_in_libs(file: &SourceFile, out: &mut Vec<Violation>) {
    if stdout_exempt(&file.rel_path) {
        return;
    }
    let toks = file.toks();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && STDOUT_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && !file.in_test(i)
        {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: t.line,
                rule: NO_STDOUT_IN_LIBS,
                message: format!(
                    "`{}!` in a library crate; return data or thread a `io::Write` sink",
                    t.text
                ),
            });
        }
    }
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

/// R5: every public field of `EngineConfig` carries a doc comment.
pub fn check_config_docs(file: &SourceFile, out: &mut Vec<Violation>) {
    if !file.rel_path.ends_with("core/src/config.rs") {
        return;
    }
    let toks = file.toks();
    // Locate `pub struct EngineConfig {`.
    let mut start = None;
    for i in 0..toks.len() {
        if toks[i].is_ident("struct")
            && toks.get(i + 1).is_some_and(|n| n.is_ident("EngineConfig"))
        {
            if let Some(open) = toks[i..].iter().position(|t| t.is_punct('{')) {
                start = Some(i + open);
            }
            break;
        }
    }
    let Some(open) = start else { return };
    let Some(close) = matching_close(toks, open, '{', '}') else { return };
    let mut depth = 0i32;
    for i in open..close {
        let t = &toks[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct('>') {
            depth -= 1;
        }
        // A field: `pub name :` at struct-body depth.
        if depth == 1
            && t.is_ident("pub")
            && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
            && toks.get(i + 2).is_some_and(|c| c.is_punct(':'))
            && !field_has_doc(toks, i)
        {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: t.line,
                rule: CONFIG_DOCS,
                message: format!(
                    "public field `{}` on `EngineConfig` lacks a doc comment",
                    toks[i + 1].text
                ),
            });
        }
    }
}

/// Walks backwards over attributes from the `pub` at `i` and checks the
/// preceding token is a doc comment.
fn field_has_doc(toks: &[Tok], mut i: usize) -> bool {
    while i > 0 {
        let p = &toks[i - 1];
        if p.is_punct(']') {
            // Skip back over one `#[...]` attribute.
            let mut depth = 0usize;
            let mut j = i - 1;
            loop {
                if toks[j].is_punct(']') {
                    depth += 1;
                } else if toks[j].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return false;
                }
                j -= 1;
            }
            i = j.saturating_sub(1); // the `#`
        } else {
            return p.kind == TokKind::DocComment;
        }
    }
    false
}

/// Detects `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]`) in a
/// crate-root file.
pub fn has_forbid_unsafe(file: &SourceFile) -> bool {
    let toks = file.toks();
    for i in 0..toks.len() {
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
        {
            if let Some(end) = matching_close(toks, i + 2, '[', ']') {
                let body = &toks[i + 3..end];
                let gate = body.iter().any(|t| t.is_ident("forbid") || t.is_ident("deny"));
                if gate && body.iter().any(|t| t.is_ident("unsafe_code")) {
                    return true;
                }
            }
        }
    }
    false
}

/// True when any token in the file is the `unsafe` keyword.
pub fn uses_unsafe(file: &SourceFile) -> bool {
    file.toks().iter().any(|t| t.is_ident("unsafe"))
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

    // ---- R1 fixtures -------------------------------------------------

    #[test]
    fn r1_flags_unwrap_expect_and_panic_macros() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("msg");
    if a > b { panic!("boom"); }
    match a { 0 => unreachable!(), _ => todo!() }
}
"#;
        let v = run_rule(HOT, src, check_no_panic_hot_path);
        assert_eq!(v.len(), 5, "{v:?}");
    }

    #[test]
    fn r1_flags_direct_indexing_but_not_patterns_or_attrs() {
        let src = r#"
#[derive(Clone)]
struct S { w: Vec<u64> }
fn f(s: &S, xs: &[u64]) -> u64 {
    let [a, b] = [1u64, 2];
    let ty: [u64; 2] = [a, b];
    let v = vec![0u64];
    s.w[0] + xs[1] + ty[0] + v[0]
}
"#;
        let v = run_rule(HOT, src, check_no_panic_hot_path);
        // Exactly the four index expressions on the last line.
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().all(|x| x.line == 8));
    }

    #[test]
    fn r1_ignores_strings_comments_and_cfg_test() {
        let src = r##"
fn f() -> &'static str {
    // this unwrap() is a comment, and so is panic!
    /* block: x.unwrap() /* nested: todo!() */ */
    let s = "x.unwrap() and panic!(\"no\")";
    let r = r#"raw unwrap() with "quotes" and xs[0]"#;
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v: Vec<u32> = vec![1];
        assert_eq!(v[0], Some(1).unwrap());
        panic!("fine in tests");
    }
}
"##;
        let v = run_rule(HOT, src, check_no_panic_hot_path);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r1_only_applies_to_hot_paths() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(run_rule("crates/query/src/parser.rs", src, check_no_panic_hot_path)
            .is_empty());
        assert_eq!(run_rule(HOT, src, check_no_panic_hot_path).len(), 1);
    }

    #[test]
    fn r1_respects_lint_allow_same_line_and_above() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap(); // lint:allow(no-panic-hot-path) — invariant: seeded above
    // lint:allow(no-panic-hot-path)
    let b = x.unwrap();
    a + b
}
"#;
        let v = run_rule(HOT, src, check_no_panic_hot_path);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r1_does_not_flag_unwrap_or_variants() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }";
        assert!(run_rule(HOT, src, check_no_panic_hot_path).is_empty());
    }

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
    fn r6_only_applies_to_hot_path_modules() {
        let src = "// lint: hot-loop\nfn f() -> Vec<u8> { Vec::new() }";
        assert!(run_rule("crates/query/src/parser.rs", src, check_no_alloc_in_episode_loop)
            .is_empty());
        assert_eq!(run_rule(HOT, src, check_no_alloc_in_episode_loop).len(), 1);
        assert_eq!(
            run_rule("crates/exec/src/scratch.rs", src, check_no_alloc_in_episode_loop).len(),
            1,
            "scratch.rs must be hot-path covered"
        );
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

    // ---- R2 fixtures -------------------------------------------------

    #[test]
    fn r2_requires_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        let v = run_rule("crates/x/src/a.rs", bad, check_unsafe_comments);
        assert_eq!(v.len(), 1);

        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}";
        assert!(run_rule("crates/x/src/a.rs", good, check_unsafe_comments).is_empty());
    }

    #[test]
    fn r2_forbid_detection() {
        let f = SourceFile::new("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\npub fn a() {}");
        assert!(has_forbid_unsafe(&f));
        assert!(!uses_unsafe(&f));
        let g = SourceFile::new("crates/x/src/lib.rs", "//! docs\npub fn a() {}");
        assert!(!has_forbid_unsafe(&g));
        // The string "unsafe" in a literal is not the keyword.
        let h = SourceFile::new("crates/x/src/lib.rs", "const S: &str = \"unsafe\";");
        assert!(!uses_unsafe(&h));
    }

    // ---- R3 fixtures -------------------------------------------------

    #[test]
    fn r3_flags_stdout_in_lib_but_not_bins_bench_tests() {
        let src = "pub fn f() { println!(\"x\"); dbg!(1); }";
        assert_eq!(run_rule("crates/query/src/parser.rs", src, check_no_stdout_in_libs).len(), 2);
        for exempt in [
            "crates/bench/src/harness.rs",
            "src/bin/roulette-cli.rs",
            "crates/exec/src/main.rs",
            "tests/smoke.rs",
            "examples/quickstart.rs",
            "crates/bench/benches/figures.rs",
        ] {
            assert!(run_rule(exempt, src, check_no_stdout_in_libs).is_empty(), "{exempt}");
        }
        let test_only = "#[cfg(test)]\nmod t { fn f() { println!(\"debugging\"); } }";
        assert!(run_rule("crates/query/src/parser.rs", test_only, check_no_stdout_in_libs)
            .is_empty());
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

    // ---- R5 fixtures -------------------------------------------------

    #[test]
    fn r5_flags_undocumented_fields() {
        let src = r#"
/// Config.
pub struct EngineConfig {
    /// Documented.
    pub vector_size: usize,
    pub mu: f64,
    #[allow(dead_code)]
    pub epsilon: f64,
    /// Documented with attribute.
    #[allow(dead_code)]
    pub gamma: f64,
    not_public: u8,
}
"#;
        let v = run_rule("crates/core/src/config.rs", src, check_config_docs);
        let fields: Vec<&str> = v
            .iter()
            .map(|x| x.message.split('`').nth(1).unwrap_or_default())
            .collect();
        assert_eq!(fields, ["mu", "epsilon"], "{v:?}");
    }

    #[test]
    fn r5_clean_when_all_documented_and_other_files_ignored() {
        let src = "pub struct EngineConfig { /** doc */ pub a: u8 }";
        assert!(run_rule("crates/core/src/config.rs", src, check_config_docs).is_empty());
        let undoc = "pub struct EngineConfig { pub a: u8 }";
        assert!(run_rule("crates/exec/src/engine.rs", undoc, check_config_docs).is_empty());
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
