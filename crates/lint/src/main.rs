//! `roulette-lint` — the workspace invariant linter's CLI.
//!
//! ```text
//! roulette-lint check [--root PATH]
//! roulette-lint rules
//! ```
//!
//! `check` exits 0 when the tree is clean, 1 on violations, 2 on usage or
//! I/O errors.

use roulette_lint::{Workspace, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: roulette-lint <check|rules> [--root PATH]";

fn parse_args() -> Result<(String, PathBuf), String> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().ok_or(USAGE)?;
    let mut root = roulette_lint::default_root();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                root = PathBuf::from(
                    args.next().ok_or_else(|| format!("--root requires a value\n{USAGE}"))?,
                )
            }
            _ => return Err(format!("unknown argument `{a}`\n{USAGE}")),
        }
    }
    Ok((cmd, root))
}

fn main() -> ExitCode {
    let (cmd, root) = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match cmd.as_str() {
        "rules" => {
            for r in RULES {
                println!("{:30} {}", r.name, r.summary);
            }
            ExitCode::SUCCESS
        }
        "check" => match Workspace::load(&root) {
            Ok(ws) => {
                let report = ws.check();
                print!("{}", report.render_text());
                if report.ok() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("roulette-lint: loading workspace at {}: {e}", root.display());
                ExitCode::from(2)
            }
        },
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
