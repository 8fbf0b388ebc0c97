//! Fixture-driven self-tests: each known-bad mini-tree must trip exactly
//! its pass, good input must pass, the escape hatch must suppress only
//! with a written reason — and the real workspace must be clean.

use dvw_lint::{Finding, Pass};
use std::path::PathBuf;

fn fixture(name: &str) -> Vec<Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    dvw_lint::run(&root).expect("fixture lint run")
}

fn fixture_outcome(name: &str) -> dvw_lint::Outcome {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    dvw_lint::run_outcome(&root).expect("fixture lint run")
}

fn count(findings: &[Finding], pass: Pass) -> usize {
    findings.iter().filter(|f| f.pass == pass).count()
}

#[test]
fn panic_bad_trips_each_construct_once() {
    let f = fixture("panic_bad");
    assert_eq!(count(&f, Pass::PanicPath), 8, "{f:#?}");
    assert_eq!(f.len(), 8, "only the panic-path pass may fire: {f:#?}");
    for needle in [
        "`.unwrap()`",
        "`.expect(..)`",
        "`panic!`",
        "`todo!`",
        "`unimplemented!`",
        "`as u32`",
        "index/range on `Bytes`",
    ] {
        assert!(
            f.iter().any(|x| x.msg.contains(needle)),
            "missing {needle}: {f:#?}"
        );
    }
    // Both the index and the bounded range trip; the full range does not.
    assert_eq!(
        f.iter().filter(|x| x.msg.contains("index/range")).count(),
        2,
        "{f:#?}"
    );
}

#[test]
fn panic_allow_suppresses_with_reason_only() {
    let f = fixture("panic_allow");
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(
        f.iter().any(|x| x.msg.contains("requires a reason")),
        "{f:#?}"
    );
    // The wrong-pass allow does not suppress the unwrap underneath it.
    assert!(f.iter().any(|x| x.msg.contains("`.unwrap()`")), "{f:#?}");
}

#[test]
fn wire_bad_finds_all_four_violations() {
    let f = fixture("wire_bad");
    assert_eq!(count(&f, Pass::WireProtocol), 4, "{f:#?}");
    assert_eq!(f.len(), 4, "{f:#?}");
    assert!(
        f.iter()
            .any(|x| x.msg.contains("collides with `PROC_HELLO`")),
        "deliberate proc-id collision must be caught: {f:#?}"
    );
    assert!(
        f.iter().any(|x| x.msg.contains("reserved built-in range")),
        "{f:#?}"
    );
    assert!(
        f.iter().any(|x| x.msg.contains("PROTOCOL_VERSION is 2")),
        "{f:#?}"
    );
    assert!(
        f.iter()
            .any(|x| x.msg.contains("`OneWay` defines `encode`")),
        "{f:#?}"
    );
}

#[test]
fn wire_good_declared_break_passes() {
    let f = fixture("wire_good");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn wire_marker_without_bump_fails() {
    let f = fixture("wire_marker");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f[0].msg.contains("bump"), "{f:#?}");
}

#[test]
fn format_bump_without_marker_fails() {
    let f = fixture("format_bad");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(
        f[0].msg.contains("DATASET_FORMAT_VERSION is 3")
            && f[0].msg.contains("format:layout-change"),
        "{f:#?}"
    );
}

#[test]
fn format_marker_without_bump_fails() {
    let f = fixture("format_marker");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(
        f[0].msg.contains("PROTOCOL_VERSION stays untouched"),
        "{f:#?}"
    );
}

#[test]
fn locks_bad_finds_direct_inlined_and_cycle() {
    let f = fixture("locks_bad");
    assert_eq!(count(&f, Pass::LockOrder), 3, "{f:#?}");
    assert_eq!(f.len(), 3, "{f:#?}");
    assert_eq!(
        f.iter()
            .filter(|x| x.msg.contains("while holding `queue`"))
            .count(),
        2,
        "direct + via-call inversions: {f:#?}"
    );
    assert!(
        f.iter()
            .any(|x| x.msg.contains("via call to `take_sessions`")),
        "{f:#?}"
    );
    assert!(f.iter().any(|x| x.msg.contains("cycle")), "{f:#?}");
}

#[test]
fn locks_good_release_patterns_pass() {
    let f = fixture("locks_good");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn hygiene_bad_finds_all_five() {
    let f = fixture("hygiene_bad");
    assert_eq!(count(&f, Pass::Hygiene), 5, "{f:#?}");
    assert_eq!(f.len(), 5, "{f:#?}");
    assert!(
        f.iter()
            .any(|x| x.msg.contains("missing `#![deny(unused_must_use)]`")),
        "{f:#?}"
    );
    assert!(
        f.iter().any(|x| x.msg.contains("crate root missing")),
        "{f:#?}"
    );
    assert!(f.iter().any(|x| x.msg.contains("`dbg!`")), "{f:#?}");
    assert!(f.iter().any(|x| x.msg.contains("`eprintln!`")), "{f:#?}");
    assert_eq!(
        f.iter().filter(|x| x.msg.contains("SAFETY")).count(),
        1,
        "only the undocumented block: {f:#?}"
    );
}

#[test]
fn blocking_bad_trips_each_construct_once() {
    let f = fixture("blocking_bad");
    assert_eq!(count(&f, Pass::Blocking), 7, "{f:#?}");
    assert_eq!(f.len(), 7, "only the blocking pass may fire: {f:#?}");
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
    let o = fixture_outcome("blocking_allow");
    assert_eq!(o.findings.len(), 1, "{o:#?}");
    assert!(o.findings[0].msg.contains("requires a reason"), "{o:#?}");
    // The reasoned allow is archived, not discarded.
    assert_eq!(o.allowed.len(), 1, "{o:#?}");
    assert_eq!(o.allowed[0].finding.pass, Pass::Blocking, "{o:#?}");
    assert!(
        o.allowed[0].reason.contains("token-channel return"),
        "{o:#?}"
    );
}

#[test]
fn blocking_xcrate_chain_crosses_crates() {
    let f = fixture("blocking_xcrate");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(
        f[0].msg.contains("fetch_sync")
            && f[0].msg.contains("`.recv()` at crates/alpha/src/lib.rs:4")
            && f[0].msg.contains("while holding `state` guard"),
        "{f:#?}"
    );
    assert_eq!(f[0].file, "crates/beta/src/lib.rs", "{f:#?}");
}

#[test]
fn stats_bad_fold_names_the_dropped_field() {
    let f = fixture("stats_bad_fold");
    assert_eq!(count(&f, Pass::Stats), 1, "{f:#?}");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(
        f[0].msg
            .contains("fold `Agg::plus` never mentions field `b`"),
        "{f:#?}"
    );
}

#[test]
fn stats_bad_wire_finds_all_four_violations() {
    let f = fixture("stats_bad_wire");
    assert_eq!(count(&f, Pass::Stats), 4, "{f:#?}");
    assert_eq!(f.len(), 4, "{f:#?}");
    assert!(
        f.iter()
            .any(|x| x.msg.contains("`Wire::encode` never writes field `c`")),
        "dropped wire field: {f:#?}"
    );
    assert!(
        f.iter().any(|x| x
            .msg
            .contains("`Wire::encode` writes `b` where declaration order has `a`")),
        "swapped wire order: {f:#?}"
    );
    assert!(
        f.iter().any(|x| x
            .msg
            .contains("declaration order of `Reorder` diverges from the baseline at position 0")),
        "reorder against baseline: {f:#?}"
    );
    assert!(
        f.iter().any(|x| x
            .msg
            .contains("field `q` of `Grown` is appended but missing from the lint.toml baseline")),
        "stale baseline: {f:#?}"
    );
}

#[test]
fn stats_good_contract_kept_passes() {
    let f = fixture("stats_good");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn clean_tree_fixture_passes_every_pass() {
    let f = fixture("clean_tree");
    assert!(f.is_empty(), "{f:#?}");
}

/// The real workspace must uphold its own declared invariants — the same
/// gate `scripts/check.sh` runs, enforced from `cargo test` too.
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
