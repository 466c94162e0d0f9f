//! Workspace automation. Two commands:
//!
//! ```text
//! cargo run -p xtask -- lint       # concurrency-hygiene lint pass
//! cargo run -p xtask -- artifacts  # FIG_*.json / BENCH_*.json provenance check
//! ```
//!
//! See [`lint`] and [`artifacts`] for the rules each pass enforces.

use std::process::ExitCode;

mod artifacts;
mod lint;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint::run(),
        Some("artifacts") => artifacts::run(),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}` (try `xtask lint` or `xtask artifacts`)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("xtask: no command given (try `xtask lint` or `xtask artifacts`)");
            ExitCode::FAILURE
        }
    }
}
