//! The workspace lint levels reach every crate: each member's manifest
//! opts into `[workspace.lints]`, which denies the crate-level table
//! (`unsafe_op_in_unsafe_fn`, `unused_must_use`, undocumented `unsafe`
//! blocks), and the out-of-workspace clippy fixture mirrors that table.

use std::fs;
use std::path::{Path, PathBuf};

const DENIED: [&str; 3] = [
    "unsafe_op_in_unsafe_fn = \"deny\"",
    "unused_must_use = \"deny\"",
    "undocumented_unsafe_blocks = \"deny\"",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of every table whose header starts with
/// `prefix`, spaces as written.
fn table_lines(toml: &str, prefix: &str) -> Vec<String> {
    let mut inside = false;
    let mut out = Vec::new();
    for line in toml.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line.starts_with(prefix);
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            out.push(line.to_string());
        }
    }
    out
}

fn inherits_workspace_lints(toml: &str) -> bool {
    table_lines(toml, "[lints]").contains(&"workspace = true".to_string())
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let manifest = read(&root().join("Cargo.toml"));
    assert!(
        manifest.contains(r#"members = ["crates/*", "shims/*"]"#),
        "the member list changed; enumerate the new members below"
    );
    let mut members: Vec<PathBuf> = vec![root().join("Cargo.toml")];
    for dir in ["crates", "shims"] {
        for entry in fs::read_dir(root().join(dir)).unwrap() {
            let m = entry.unwrap().path().join("Cargo.toml");
            if m.is_file() {
                members.push(m);
            }
        }
    }
    assert!(members.len() > 20, "{members:?}");
    let missing: Vec<&PathBuf> = members
        .iter()
        .filter(|m| !inherits_workspace_lints(&read(m)))
        .collect();
    assert!(
        missing.is_empty(),
        "add `[lints] workspace = true` to: {missing:?}"
    );
    // The check's own failing case.
    assert!(!inherits_workspace_lints("[package]\nname = \"x\"\n"));
    assert!(!inherits_workspace_lints(
        "[lints.rust]\nworkspace = true\n"
    ));
}

#[test]
fn workspace_lints_deny_the_crate_table_and_the_fixture_mirrors_them() {
    let workspace = table_lines(&read(&root().join("Cargo.toml")), "[workspace.lints.");
    let fixture = table_lines(
        &read(&root().join("tests/clippy_bad/Cargo.toml")),
        "[lints.",
    );
    for lint in DENIED {
        assert!(
            workspace.iter().any(|l| l == lint),
            "{lint} in {workspace:?}"
        );
    }
    assert_eq!(fixture, workspace, "tests/clippy_bad/Cargo.toml [lints.*]");
}
