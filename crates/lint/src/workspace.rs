//! Workspace loading and whole-tree analysis.
//!
//! Walks `crates/`, `shims/`, `src/`, `tests/`, and `examples/` under the
//! workspace root, lexes every `.rs` file once, and runs the rule set:
//! per-file rules directly, plus the cross-file analyses — crate-level
//! `#![forbid(unsafe_code)]` coverage (R2), shim surface matching against
//! the non-shim reference corpus (R4), and the concurrency model behind
//! R7/R8/R9 (lock-order against `lock-order.toml`, blocking-while-locked,
//! and atomic-ordering justification; see [`crate::conc`]).

use crate::baseline::Baseline;
use crate::conc::{self, LockOrder};
use crate::report::{CheckReport, Severity, StaleEntry, Violation};
use crate::rules::{
    self, has_forbid_unsafe, rule_by_name, uses_unsafe, SourceFile, UNSAFE_NEEDS_SAFETY_COMMENT,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};

/// Directories under the workspace root that are scanned for `.rs` files.
pub const SCAN_ROOTS: &[&str] = &["crates", "shims", "src", "tests", "examples"];

/// Directory names that are never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// A loaded workspace: every scanned source file, lexed and annotated.
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// Files in sorted path order.
    pub files: Vec<SourceFile>,
    /// The canonical lock order from `<root>/lock-order.toml`, when the
    /// file exists. `None` makes every multi-lock nesting an R7 violation.
    pub lock_order: Option<LockOrder>,
}

impl Workspace {
    /// Walks and lexes the workspace under `root`.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut paths = Vec::new();
        for sub in SCAN_ROOTS {
            let dir = root.join(sub);
            if dir.is_dir() {
                walk(&dir, &mut paths)?;
            }
        }
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for p in paths {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let src = std::fs::read_to_string(&p)?;
            files.push(SourceFile::new(rel, &src));
        }
        let order_path = root.join("lock-order.toml");
        let lock_order = if order_path.is_file() {
            let text = std::fs::read_to_string(&order_path)?;
            Some(
                LockOrder::parse(&text)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
            )
        } else {
            None
        };
        Ok(Workspace { root: root.to_path_buf(), files, lock_order })
    }

    /// Runs every rule and returns all violations not suppressed by an
    /// inline `lint:allow` escape, sorted by `(file, line)`.
    pub fn analyze(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for f in &self.files {
            rules::check_no_panic_hot_path(f, &mut out);
            rules::check_no_alloc_in_episode_loop(f, &mut out);
            rules::check_unsafe_comments(f, &mut out);
            rules::check_no_stdout_in_libs(f, &mut out);
            rules::check_config_docs(f, &mut out);
        }
        self.check_forbid_unsafe(&mut out);
        self.check_shim_surfaces(&mut out);
        conc::check_concurrency(&self.files, self.lock_order.as_ref(), &mut out);
        conc::check_atomic_orderings(&self.files, &mut out);
        // Apply inline escapes.
        let by_path: HashMap<&str, &SourceFile> =
            self.files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
        out.retain(|v| {
            by_path.get(v.file.as_str()).is_none_or(|f| !f.allowed(v.rule, v.line))
        });
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        out
    }

    /// R2, crate half: a crate whose sources contain no `unsafe` must
    /// declare `#![forbid(unsafe_code)]` at its root.
    fn check_forbid_unsafe(&self, out: &mut Vec<Violation>) {
        for (root_file, members) in self.crates() {
            let any_unsafe = members.iter().any(|f| uses_unsafe(f));
            let root = members.iter().find(|f| f.rel_path == root_file);
            if let Some(root) = root {
                if !any_unsafe && !has_forbid_unsafe(root) {
                    out.push(Violation {
                        file: root_file.clone(),
                        line: 1,
                        rule: UNSAFE_NEEDS_SAFETY_COMMENT,
                        message: "crate has no unsafe code; declare `#![forbid(unsafe_code)]` \
                                  so none can land silently"
                            .to_string(),
                    });
                }
            }
        }
    }

    /// Groups files into crates: `crates/<n>/…` and `shims/<n>/…` each form
    /// one crate rooted at `…/src/lib.rs`; `src/` + root `tests/` +
    /// `examples/` form the umbrella crate rooted at `src/lib.rs`.
    fn crates(&self) -> BTreeMap<String, Vec<&SourceFile>> {
        let mut groups: BTreeMap<String, Vec<&SourceFile>> = BTreeMap::new();
        for f in &self.files {
            let parts: Vec<&str> = f.rel_path.split('/').collect();
            let root_file = match parts.as_slice() {
                ["crates" | "shims", name, ..] => format!("{}/{}/src/lib.rs", parts[0], name),
                _ => "src/lib.rs".to_string(),
            };
            groups.entry(root_file).or_default().push(f);
        }
        groups
    }

    /// R4: every shim pub item must be referenced from outside its own
    /// crate. The reference corpus for shim `S` is:
    ///
    /// * every identifier in non-shim code (`crates/`, `src/`, `tests/`,
    ///   `examples/`),
    /// * every identifier in *other* shims (shims may build on each other,
    ///   e.g. proptest's generator is `rand::StdRng`),
    /// * identifiers inside `S`'s own `#[macro_export]` macro bodies —
    ///   those tokens expand at workspace call sites (e.g. `proptest!`
    ///   naming `ProptestConfig`).
    ///
    /// `S`'s ordinary code does *not* count: a shim keeping its own
    /// surface alive is exactly the drift this rule exists to catch.
    fn check_shim_surfaces(&self, out: &mut Vec<Violation>) {
        let idents = |f: &SourceFile| -> Vec<String> {
            f.lexed
                .toks
                .iter()
                .filter(|t| t.kind == crate::lexer::TokKind::Ident)
                .map(|t| t.text.clone())
                .collect()
        };
        // Shim crate name ("shims/<name>/…") → identifiers in that shim.
        let mut per_shim: BTreeMap<String, HashSet<String>> = BTreeMap::new();
        let mut non_shim: HashSet<String> = HashSet::new();
        for f in &self.files {
            match f.rel_path.split('/').collect::<Vec<_>>().as_slice() {
                ["shims", name, ..] => {
                    per_shim.entry(name.to_string()).or_default().extend(idents(f))
                }
                _ => non_shim.extend(idents(f)),
            }
        }
        for f in &self.files {
            let Some(shim) = f.rel_path.strip_prefix("shims/").and_then(|r| r.split('/').next())
            else {
                continue;
            };
            let mut referenced = non_shim.clone();
            for (other, ids) in &per_shim {
                if other != shim {
                    referenced.extend(ids.iter().cloned());
                }
            }
            referenced.extend(rules::exported_macro_body_idents(f));
            rules::check_shim_surface(f, &referenced, out);
        }
    }

    /// Runs `analyze` and reconciles the result against `baseline`,
    /// honoring per-rule severity (optionally overridden by `demote`,
    /// a set of rule names treated as warnings).
    pub fn check(&self, baseline: &Baseline, demote: &HashSet<String>) -> CheckReport {
        let violations = self.analyze();
        let mut report = CheckReport { checked_files: self.files.len(), ..Default::default() };

        let severity = |rule: &str| -> Severity {
            if demote.contains(rule) {
                Severity::Warn
            } else {
                rule_by_name(rule).map_or(Severity::Deny, |r| r.severity)
            }
        };

        // Group found violations by (file, rule) and compare counts with
        // the frozen allowance.
        let mut grouped: BTreeMap<(String, String), Vec<Violation>> = BTreeMap::new();
        for v in violations {
            grouped.entry((v.file.clone(), v.rule.to_string())).or_default().push(v);
        }
        for ((file, rule), vs) in &grouped {
            let allowance = baseline.allowance(file, rule);
            match vs.len().cmp(&allowance) {
                std::cmp::Ordering::Greater => {
                    // More violations than frozen: report every site (the
                    // baseline has no line information, so all candidate
                    // sites are shown) with the counts attached.
                    for v in vs {
                        let mut v = v.clone();
                        if allowance > 0 {
                            v.message.push_str(&format!(
                                " [{} found, {} baselined]",
                                vs.len(),
                                allowance
                            ));
                        }
                        match severity(rule) {
                            Severity::Deny => report.errors.push(v),
                            Severity::Warn => report.warnings.push(v),
                        }
                    }
                }
                std::cmp::Ordering::Equal => report.baselined += vs.len(),
                std::cmp::Ordering::Less => {
                    report.baselined += vs.len();
                    if severity(rule) == Severity::Deny {
                        report.stale.push(StaleEntry {
                            file: file.clone(),
                            rule: rule.clone(),
                            baselined: allowance,
                            found: vs.len(),
                        });
                    }
                }
            }
        }
        // Baseline entries with no remaining violations at all are stale
        // too — otherwise deleting the last violation would leave frozen
        // headroom for new code to consume.
        for e in &baseline.entries {
            if !grouped.contains_key(&(e.file.clone(), e.rule.clone()))
                && severity(&e.rule) == Severity::Deny
            {
                report.stale.push(StaleEntry {
                    file: e.file.clone(),
                    rule: e.rule.clone(),
                    baselined: e.count,
                    found: 0,
                });
            }
        }
        report.stale.sort_by(|a, b| (&a.file, &a.rule).cmp(&(&b.file, &b.rule)));
        report
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace root this binary was built inside: two levels above the
/// lint crate's manifest. Callers can override with `--root`.
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}
