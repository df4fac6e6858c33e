//! `cargo run -p crac-lint [workspace-root]` — walk every
//! `crates/*/src` (and the umbrella `src/`) and enforce the workspace's
//! invariants no compiler checks.  Exits non-zero when any violation is
//! found.

use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    match crac_lint::run(std::path::Path::new(&root)) {
        Ok(outcome) => {
            print!("{}", outcome.render());
            if outcome.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("crac-lint: {err}");
            ExitCode::FAILURE
        }
    }
}
