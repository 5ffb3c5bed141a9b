//! Violation records and report rendering.
//!
//! Rendering returns `String`s — the library never writes to stdout; only
//! the `roulette-lint` binary prints.

/// One rule violation at one source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name, e.g. `atomic-ordering-justified`.
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Outcome of a `check` run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Number of `.rs` files analyzed.
    pub checked_files: usize,
    /// Violations not suppressed by a `lint:allow`; any entry fails the
    /// check.
    pub errors: Vec<Violation>,
}

impl CheckReport {
    /// True when the check passes.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.errors {
            out.push_str(&format!("error[{}] {}:{}: {}\n", v.rule, v.file, v.line, v.message));
        }
        out.push_str(&format!(
            "{}: {} file(s) checked, {} error(s)\n",
            if self.ok() { "ok" } else { "FAILED" },
            self.checked_files,
            self.errors.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_ok_logic() {
        let mut r = CheckReport { checked_files: 3, ..Default::default() };
        assert!(r.ok());
        assert!(r.render_text().starts_with("ok: 3 file(s) checked"));
        r.errors.push(Violation {
            file: "a.rs".into(),
            line: 7,
            rule: "no-alloc-in-episode-loop",
            message: "`vec![…]` allocates".into(),
        });
        assert!(!r.ok());
        let text = r.render_text();
        assert!(text.contains("error[no-alloc-in-episode-loop] a.rs:7:"), "{text}");
        assert!(text.ends_with("FAILED: 3 file(s) checked, 1 error(s)\n"), "{text}");
    }
}
