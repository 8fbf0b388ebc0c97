//! `dvw-lint` — the blocking-while-locked checker.
//!
//! Under the paper's serial multi-user model one stalled server thread
//! costs every connected client a frame, and a thread that blocks while
//! it holds a guard stalls every other thread touching that lock. No
//! off-the-shelf tool sees that across function and crate boundaries,
//! so this crate does it: a lexer, a per-file source model, a
//! workspace-wide call graph with may-block propagation, and the
//! blocking pass over the service-path crates in [`CRATES`]. The other
//! workspace invariants are enforced by rustc and clippy lint levels,
//! exhaustive destructuring and golden-byte tests (`DESIGN.md` §7).
//!
//! Escape hatch: `// lint:allow(blocking): <reason>` on the offending
//! line or the line above; the reason is mandatory.

mod blocking;
mod callgraph;
mod lexer;
mod source;

use source::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crate directories whose non-test code the blocking pass checks: the
/// dlib dispatcher, the windtunnel session/compute loops, the storage
/// prefetch and fault-tolerance stacks, the codec and the tracer.
pub const CRATES: [&str; 5] = ["dlib", "windtunnel", "storage", "flowfield", "tracer"];

/// One diagnostic, formatted as `file:line: [blocking] message` —
/// stable, diff-friendly, and editor-clickable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [blocking] {}", self.file, self.line, self.msg)
    }
}

/// Push `msg` unless a reasoned `lint:allow(blocking)` covers it. Using
/// the hatch without a reason is itself a finding: the whole point is a
/// written record of why the invariant doesn't apply.
pub(crate) fn push_unless_allowed(
    file: &SourceFile,
    findings: &mut Vec<Finding>,
    line: u32,
    msg: String,
) {
    let (line, msg) = match file.allow_for("blocking", line) {
        Some(a) if !a.reason.is_empty() => return,
        Some(a) => (
            a.line,
            "`lint:allow(blocking)` requires a reason: `// lint:allow(blocking): <why>`".into(),
        ),
        None => (line, msg),
    };
    findings.push(Finding {
        file: file.rel.clone(),
        line,
        msg,
    });
}

/// Run the blocking pass on the workspace rooted at `root`. Findings
/// come back sorted by file and line.
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let files = load_workspace(root)?;
    let mut findings = blocking::check(&files);
    findings.sort();
    findings.dedup();
    Ok(findings)
}

/// Load every `.rs` file under `src/` and `crates/*/src/` (the call
/// graph spans the whole workspace), skipping `target/` and this
/// crate's own `fixtures/`, in deterministic path order.
fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut dirs = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries =
            std::fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
        for entry in entries {
            dirs.push(entry.map_err(|e| e.to_string())?.path().join("src"));
        }
    }
    let mut paths: Vec<PathBuf> = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect_rs(dir, &mut paths)?;
    }
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            Ok(SourceFile::parse(&rel, &text))
        })
        .collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
