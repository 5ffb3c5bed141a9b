//! The repository obeys its own lint rules, and a violating
//! mini-workspace trips every one of them through the full pipeline.

use roulette_lint::{default_root, Workspace, RULES};

#[test]
fn tree_is_clean() {
    let ws = Workspace::load(&default_root()).expect("workspace loads");
    let report = ws.check();
    assert!(report.ok(), "repository violates its own lint rules:\n{}", report.render_text());
    assert!(report.checked_files > 50, "suspiciously few files scanned");
}

#[test]
fn every_rule_fires_on_a_violating_fixture() {
    let root = std::env::temp_dir().join(format!("roulette-lint-rt-{}", std::process::id()));
    let src_dir = root.join("crates/demo/src");
    let shim_dir = root.join("shims/demo/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir crate");
    std::fs::create_dir_all(&shim_dir).expect("mkdir shim");
    std::fs::write(
        src_dir.join("lib.rs"),
        r#"
use std::sync::atomic::{AtomicU64, Ordering};

pub struct S {
    pub n: AtomicU64,
}

impl S {
    pub fn unjustified(&self) -> u64 {
        self.n.load(Ordering::Acquire)
    }
}

// lint: hot-loop
pub fn allocates(xs: &[u32]) -> Vec<u32> {
    used();
    xs.to_vec()
}
"#,
    )
    .expect("write fixture");
    std::fs::write(shim_dir.join("lib.rs"), "pub fn used() {}\npub fn orphan() {}\n")
        .expect("write shim fixture");

    let ws = Workspace::load(&root).expect("fixture workspace loads");
    let report = ws.check();
    assert!(!report.ok());
    for rule in RULES {
        assert!(
            report.errors.iter().any(|v| v.rule == rule.name),
            "fixture should trip {}, got:\n{}",
            rule.name,
            report.render_text()
        );
    }
    assert_eq!(report.errors.len(), RULES.len(), "{}", report.render_text());

    std::fs::remove_dir_all(&root).ok();
}
