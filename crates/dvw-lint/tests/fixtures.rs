//! Fixture-driven self-tests: each known-bad mini-tree must trip the
//! blocking pass, good input must pass, the escape hatch must suppress
//! only with a written reason — and the real workspace must be clean.

use dvw_lint::Finding;
use std::path::PathBuf;

fn fixture(name: &str) -> Vec<Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    dvw_lint::run(&root).expect("fixture lint run")
}

#[test]
fn blocking_bad_trips_each_construct_once() {
    let f = fixture("blocking_bad");
    assert_eq!(f.len(), 7, "{f:#?}");
    assert!(
        f.iter().any(|x| x
            .msg
            .contains("blocks on `.send()` while holding `state` guard")),
        "direct send-under-guard: {f:#?}"
    );
    // Two hops below the guard holder: top -> mid -> leaf -> recv. A
    // single level of inlining would miss this.
    assert!(
        f.iter().any(|x| x
            .msg
            .contains("calls `mid`, which may block (`leaf` -> `.recv()` at")
            && x.msg.contains("while holding `state` guard")),
        "fixed-point call chain: {f:#?}"
    );
    assert!(
        f.iter()
            .any(|x| x.msg.contains("inside a `.par_iter()` closure")),
        "blocking in a rayon closure: {f:#?}"
    );
    assert!(
        f.iter().any(|x| x
            .msg
            .contains("blocks on `sleep(..)` while holding `m` guard")),
        "sleep-under-guard: {f:#?}"
    );
    // dlib's socket send: the vectored write itself, the crate's own
    // send loop reached through a call, and the std method of that name.
    assert!(
        f.iter().any(|x| x
            .msg
            .contains("blocks on `.write_vectored()` while holding `state` guard")),
        "writev-under-guard: {f:#?}"
    );
    assert!(
        f.iter().any(|x| x
            .msg
            .contains("calls `write_all_vectored`, which may block (`.write_vectored()` at")),
        "send loop under guard: {f:#?}"
    );
    assert!(
        f.iter().any(|x| x
            .msg
            .contains("blocks on `.write_all_vectored()` while holding `m` guard")),
        "std send-all under guard: {f:#?}"
    );
}

#[test]
fn blocking_good_release_patterns_pass() {
    let f = fixture("blocking_good");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn blocking_allow_reasoned_suppresses_bare_fails() {
    let f = fixture("blocking_allow");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f[0].msg.contains("requires a reason"), "{f:#?}");
    assert_eq!(
        f[0].line, 19,
        "the bare allow, not the reasoned one: {f:#?}"
    );
}

#[test]
fn blocking_xcrate_chain_crosses_crates() {
    let f = fixture("blocking_xcrate");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(
        f[0].msg.contains("fetch_sync")
            && f[0]
                .msg
                .contains("`.recv()` at crates/storage/src/lib.rs:4")
            && f[0].msg.contains("while holding `state` guard"),
        "{f:#?}"
    );
    assert_eq!(f[0].file, "crates/windtunnel/src/lib.rs", "{f:#?}");
}

#[test]
fn clean_tree_fixture_passes_every_pass() {
    let f = fixture("clean_tree");
    assert!(f.is_empty(), "{f:#?}");
}

/// The real workspace must hold no guard across a blocking call — the
/// same gate `scripts/check.sh` runs, enforced from `cargo test` too.
#[test]
fn real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let f = dvw_lint::run(&root).expect("workspace lint run");
    assert!(
        f.is_empty(),
        "workspace violates its own invariants:\n{}",
        f.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
