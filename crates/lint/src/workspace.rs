//! Workspace loading and whole-tree analysis.
//!
//! Walks `crates/`, `shims/`, `src/`, `tests/`, and `examples/` under the
//! workspace root, lexes every `.rs` file once, and runs the rule set:
//! R6 per file, plus the two cross-file analyses — shim surface matching
//! against the non-shim reference corpus (R4) and atomic-ordering
//! justification with its workspace-wide counter set (R9, see
//! [`crate::atomics`]).

use crate::atomics;
use crate::report::{CheckReport, Violation};
use crate::rules::{self, SourceFile};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};

/// Directories under the workspace root that are scanned for `.rs` files.
pub const SCAN_ROOTS: &[&str] = &["crates", "shims", "src", "tests", "examples"];

/// Directory names that are never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// A loaded workspace: every scanned source file, lexed and annotated.
pub struct Workspace {
    /// Files in sorted path order.
    pub files: Vec<SourceFile>,
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
        Ok(Workspace { files })
    }

    /// Runs every rule and returns all violations not suppressed by an
    /// inline `lint:allow` escape, sorted by `(file, line)`.
    pub fn analyze(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for f in &self.files {
            rules::check_no_alloc_in_episode_loop(f, &mut out);
        }
        self.check_shim_surfaces(&mut out);
        atomics::check_atomic_orderings(&self.files, &mut out);
        // Apply inline escapes.
        let by_path: HashMap<&str, &SourceFile> =
            self.files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
        out.retain(|v| {
            by_path.get(v.file.as_str()).is_none_or(|f| !f.allowed(v.rule, v.line))
        });
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        out
    }

    /// Runs [`analyze`](Self::analyze) over the tree: every violation is an
    /// error.
    pub fn check(&self) -> CheckReport {
        CheckReport { checked_files: self.files.len(), errors: self.analyze() }
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
