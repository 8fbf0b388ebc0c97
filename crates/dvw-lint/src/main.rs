//! CLI wrapper: `cargo run -p dvw-lint`.
//!
//! Exit status 0 means no guard is held across a blocking call in the
//! service-path crates; 1 means findings were printed (one
//! `file:line: [blocking] message` per line); 2 means the checker itself
//! could not read the tree.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    match dvw_lint::run(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("dvw-lint: clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!("dvw-lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("dvw-lint: {e}");
            ExitCode::from(2)
        }
    }
}
