//! Rule R9 `atomic-ordering-justified`: every non-`Relaxed` atomic
//! ordering, and every `Relaxed` on a non-counter atomic, needs an
//! `// ordering:` comment (same line or the two lines above) naming the
//! store or load it pairs with. An atomic counts as a counter when it is
//! the receiver of a `fetch_add`/`fetch_sub` anywhere in the workspace.
//! Shims, tests, benches and examples are outside the rule.

use crate::lexer::TokKind;
use crate::report::Violation;
use crate::rules::{SourceFile, ATOMIC_ORDERING_JUSTIFIED};
use std::collections::HashSet;

fn is_shim(f: &SourceFile) -> bool {
    f.rel_path.starts_with("shims/")
}

fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
}

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
const COUNTER_METHODS: &[&str] = &["fetch_add", "fetch_sub"];

/// Runs the R9 analysis: every `Ordering::X` site needs either the
/// Relaxed-counter exemption or an `// ordering:` comment.
pub fn check_atomic_orderings(files: &[SourceFile], out: &mut Vec<Violation>) {
    // Pass 1: atomics that are counters (receivers of fetch_add/sub).
    let mut counters: HashSet<String> = HashSet::new();
    for f in files {
        if is_shim(f) {
            continue;
        }
        let toks = &f.lexed.toks;
        for i in 2..toks.len() {
            if toks[i].kind == TokKind::Ident
                && COUNTER_METHODS.contains(&toks[i].text.as_str())
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && toks[i - 2].kind == TokKind::Ident
            {
                counters.insert(toks[i - 2].text.clone());
            }
        }
    }
    // Pass 2: audit every Ordering::X site.
    for f in files {
        if is_shim(f) || is_test_path(&f.rel_path) {
            continue;
        }
        let toks = &f.lexed.toks;
        let mut flagged_lines: HashSet<u32> = HashSet::new();
        for i in 0..toks.len() {
            if !toks[i].is_ident("Ordering")
                || !toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                || !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            {
                continue;
            }
            let Some(ord) = toks.get(i + 3) else { continue };
            if !ATOMIC_ORDERINGS.contains(&ord.text.as_str()) || f.in_test(i) {
                continue;
            }
            // Find the enclosing call: scan back for the unmatched `(`.
            let mut depth = 0i32;
            let mut method: Option<&str> = None;
            let mut receiver: Option<&str> = None;
            let mut in_use = false;
            let mut k = i;
            while k > 0 {
                k -= 1;
                let t = &toks[k];
                if t.is_punct(')') || t.is_punct(']') {
                    depth += 1;
                } else if t.is_punct('(') || t.is_punct('[') {
                    if depth == 0 {
                        if t.is_punct('(') && k > 0 && toks[k - 1].kind == TokKind::Ident {
                            method = Some(&toks[k - 1].text);
                            if k > 2
                                && toks[k - 2].is_punct('.')
                                && toks[k - 3].kind == TokKind::Ident
                            {
                                receiver = Some(&toks[k - 3].text);
                            }
                        }
                        break;
                    }
                    depth -= 1;
                } else if t.is_punct(';') && depth == 0 {
                    break;
                } else if t.is_ident("use") {
                    in_use = true;
                    break;
                }
            }
            if in_use {
                continue; // `use std::sync::atomic::Ordering::…`
            }
            let counter_site = method.is_some_and(|m| COUNTER_METHODS.contains(&m))
                || receiver.is_some_and(|r| counters.contains(r));
            if ord.text == "Relaxed" && counter_site {
                continue;
            }
            let line = ord.line;
            let commented =
                (line.saturating_sub(2)..=line).any(|l| f.ordering_lines.contains(&l));
            if commented || !flagged_lines.insert(line) {
                continue;
            }
            let message = if ord.text == "Relaxed" {
                format!(
                    "`Ordering::Relaxed`{} on a non-counter atomic needs an `// ordering:` \
                     comment (why is no cross-thread ordering required here?)",
                    receiver.map(|r| format!(" on `{r}`")).unwrap_or_default()
                )
            } else {
                format!(
                    "`Ordering::{}`{} needs an `// ordering:` comment naming the \
                     store/load it pairs with",
                    ord.text,
                    method.map(|m| format!(" in `{m}`")).unwrap_or_default()
                )
            };
            out.push(Violation {
                file: f.rel_path.clone(),
                line,
                rule: ATOMIC_ORDERING_JUSTIFIED,
                message,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_r9(files: &[(&str, &str)]) -> Vec<Violation> {
        let sfs: Vec<SourceFile> =
            files.iter().map(|(p, s)| SourceFile::new(*p, s)).collect();
        let mut out = Vec::new();
        check_atomic_orderings(&sfs, &mut out);
        for f in &sfs {
            out.retain(|v| v.file != f.rel_path || !f.allowed(v.rule, v.line));
        }
        out
    }

    #[test]
    fn r9_flags_unjustified_orderings_and_honors_comments() {
        let src = r#"
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
pub struct C {
    hits: AtomicU64,
    stop: AtomicBool,
}
impl C {
    pub fn work(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        let _ = self.hits.load(Ordering::Relaxed);
        self.stop.store(true, Ordering::Release);
        // ordering: pairs with the Release store in work()
        let _ = self.stop.load(Ordering::Acquire);
        let x = 1;
        let _ = x;
        let _ = self.stop.load(Ordering::Acquire);
    }
}
"#;
        let v = run_r9(&[("crates/x/src/c.rs", src)]);
        // fetch_add Relaxed: exempt. load on `hits` (a counter): exempt.
        // Release store: flagged. First Acquire: commented (same-line-or-
        // two-above window, like SAFETY). Second: flagged.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == ATOMIC_ORDERING_JUSTIFIED));
        assert!(v[0].message.contains("Release"), "{}", v[0].message);
        assert_eq!(v[1].line, 16);
    }

    #[test]
    fn r9_flags_relaxed_on_non_counter_atomics() {
        let src = r#"
use std::sync::atomic::{AtomicBool, Ordering};
pub struct F { closed: AtomicBool }
impl F {
    pub fn check(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }
}
"#;
        let v = run_r9(&[("crates/x/src/f.rs", src)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("non-counter"), "{}", v[0].message);
    }

    #[test]
    fn r9_skips_tests_shims_and_use_statements() {
        let src = r#"
use std::sync::atomic::Ordering;
#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering};
    #[test]
    fn t() {
        let a = AtomicU32::new(0);
        a.store(1, Ordering::SeqCst);
    }
}
"#;
        assert!(run_r9(&[("crates/x/src/t.rs", src)]).is_empty());
        let raw = "pub fn f(a: &std::sync::atomic::AtomicU32) { a.store(1, Ordering::SeqCst); }";
        assert!(run_r9(&[("shims/x/src/lib.rs", raw)]).is_empty());
        assert!(run_r9(&[("crates/x/benches/b.rs", raw)]).is_empty());
    }

    #[test]
    fn r9_one_violation_per_line_covers_compare_exchange() {
        let src = r#"
use std::sync::atomic::{AtomicU32, Ordering};
pub fn cas(a: &AtomicU32) {
    let _ = a.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);
}
"#;
        let v = run_r9(&[("crates/x/src/c.rs", src)]);
        assert_eq!(v.len(), 1, "{v:?}");
    }
}
