//! Workspace-wide call graph with fixed-point may-block propagation.
//!
//! In the prefetch/resilient stacks a fetch can cross three wrappers
//! before it reaches a channel `recv` or a file read, so inlining one
//! call level is not enough. This module
//! extracts every `fn` item with a crate-qualified key, classifies
//! *direct* blocking primitives (bounded channel `send`/`recv`, thread
//! `join`, condvar waits, socket/file reads, `sleep` backoff), records
//! call sites, and then propagates "may block" to callers until a fixed
//! point. The blocking pass walks guard lifetimes per function and asks
//! this graph whether each call can stall.
//!
//! Resolution is name-based and deliberately conservative in a narrow
//! way: bare and `.method` calls resolve within the caller's crate,
//! `krate::path::fn` calls resolve across crates by the first path
//! segment, `Type::fn` and unknown-crate paths are skipped (no type
//! inference), and `drop` is never a call — it is the guard-release
//! intrinsic.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Method names that block the calling thread when invoked with `.`:
/// channel operations, thread join, condvar waits, socket/file I/O.
/// `write_vectored` / `write_all_vectored` are dlib's socket send since
/// its frames stopped going through `write_all` + `flush`.
pub const BLOCKING_METHODS: [&str; 12] = [
    "send",
    "recv",
    "recv_timeout",
    "join",
    "wait",
    "wait_timeout",
    "read_exact",
    "read_to_end",
    "write_all",
    "flush",
    "write_vectored",
    "write_all_vectored",
];

/// Of the above, names that only count with an empty argument list —
/// `Path::join("x")` and `Vec::join(", ")` are not thread joins, and
/// `recv` with arguments is somebody's own API, not a channel.
const ZERO_ARG_ONLY: [&str; 2] = ["recv", "join"];

/// Free functions that block: `sleep` catches `std::thread::sleep` and
/// any local backoff helper of the same name.
pub const BLOCKING_FUNCTIONS: [&str; 1] = ["sleep"];

/// Keywords and intrinsics that must never be treated as call sites.
const NON_CALLS: [&str; 26] = [
    "if", "while", "match", "for", "loop", "return", "break", "continue", "let", "fn", "move",
    "else", "unsafe", "in", "as", "where", "ref", "mut", "dyn", "await", "yield", "box", "impl",
    "use", "drop", "self",
];

/// If `code[j]` heads a blocking primitive call, describe it
/// (`` `.recv()` ``, `` `sleep(..)` ``). Lock acquisition
/// (`.lock()`/`.read()`/`.write()`) is deliberately *not* here: the
/// blocking pass tracks it as the start of a guard.
pub fn classify(code: &[Tok], j: usize) -> Option<String> {
    let t = code.get(j)?;
    if t.kind != TokKind::Ident || !code.get(j + 1).map(|n| n.is_punct('(')).unwrap_or(false) {
        return None;
    }
    let after_dot = j > 0 && code[j - 1].is_punct('.');
    if after_dot {
        if !BLOCKING_METHODS.contains(&t.text.as_str()) {
            return None;
        }
        if ZERO_ARG_ONLY.contains(&t.text.as_str())
            && !code.get(j + 2).map(|n| n.is_punct(')')).unwrap_or(false)
        {
            return None;
        }
        return Some(format!("`.{}()`", t.text));
    }
    BLOCKING_FUNCTIONS
        .contains(&t.text.as_str())
        .then(|| format!("`{}(..)`", t.text))
}

/// `(crate directory, function name)` — the graph's node key. Same-name
/// functions within one crate merge, which makes propagation
/// conservative rather than unsound.
pub type FnKey = (String, String);

/// Why a function may block: the primitive reached, where it is, and
/// the call chain (callee display names, outermost first) that reaches
/// it from the function this record is attached to.
#[derive(Debug, Clone)]
pub struct Blocked {
    pub what: String,
    pub file: String,
    pub line: u32,
    pub chain: Vec<String>,
}

impl Blocked {
    /// `helper -> fetch_sync -> `.recv()` at crates/x/src/lib.rs:9`
    pub fn describe(&self) -> String {
        let mut parts: Vec<String> = self.chain.iter().map(|c| format!("`{c}`")).collect();
        parts.push(format!("{} at {}:{}", self.what, self.file, self.line));
        parts.join(" -> ")
    }
}

/// One extracted `fn` item: name and the token span of its body
/// (`open` = index of `{`, `close` = index of matching `}`).
pub struct FnItem {
    pub name: String,
    pub open: usize,
    pub close: usize,
}

/// Extract every braced `fn` item from a file, skipping bodies declared
/// on test lines and bodiless trait-method signatures.
pub fn fn_items(file: &SourceFile) -> Vec<FnItem> {
    let code = &file.code;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if !code[i].is_ident("fn") || file.is_test_line(code[i].line) {
            i += 1;
            continue;
        }
        let Some(name) = code.get(i + 1) else { break };
        if name.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Find the body's opening brace; a `;` first (outside generics)
        // means a signature without a body.
        let mut j = i + 2;
        let mut open = None;
        let mut angle = 0i32;
        while let Some(t) = code.get(j) {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle = (angle - 1).max(0);
            } else if t.is_punct(';') && angle == 0 {
                break;
            } else if t.is_punct('{') {
                open = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let mut depth = 0i32;
        let mut k = open;
        while let Some(t) = code.get(k) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        let close = k.min(code.len().saturating_sub(1));
        out.push(FnItem {
            name: name.text.clone(),
            open,
            close,
        });
        i = close + 1;
    }
    out
}

/// Crate directory a workspace-relative path belongs to.
pub fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("workspace-root")
        .to_string()
}

/// If `code[j]` heads a resolvable call site, return the candidate keys
/// to try (in order) and a display string for messages. `None` for
/// keywords, macros (the `(` check excludes them), uppercase-initial
/// names (`Type::method`, tuple constructors), and `drop`.
pub fn call_candidates(
    code: &[Tok],
    j: usize,
    this_crate: &str,
    crate_dirs: &BTreeSet<String>,
) -> Option<(Vec<FnKey>, String)> {
    let t = code.get(j)?;
    if t.kind != TokKind::Ident || !code.get(j + 1).map(|n| n.is_punct('(')).unwrap_or(false) {
        return None;
    }
    if NON_CALLS.contains(&t.text.as_str()) {
        return None;
    }
    if t.text
        .chars()
        .next()
        .map(char::is_uppercase)
        .unwrap_or(true)
    {
        return None;
    }
    // `fn name(` is a definition, not a call.
    if j > 0 && code[j - 1].is_ident("fn") {
        return None;
    }
    let after_dot = j > 0 && code[j - 1].is_punct('.');
    if after_dot {
        // Method call: resolve by bare name within the caller's crate.
        return Some((
            vec![(this_crate.to_string(), t.text.clone())],
            t.text.clone(),
        ));
    }
    let segs = path_segments(code, j);
    if segs.len() == 1 {
        return Some((
            vec![(this_crate.to_string(), t.text.clone())],
            t.text.clone(),
        ));
    }
    let first = &segs[0];
    let name = segs.last().cloned()?;
    if first.chars().next().map(char::is_uppercase).unwrap_or(true) {
        return None; // `Type::method` — needs type resolution we don't do.
    }
    let display = segs.join("::");
    let mut candidates = Vec::new();
    if first == "crate" || first == "self" || first == "super" {
        candidates.push((this_crate.to_string(), name));
    } else {
        // A crate-dir match first (`-`/`_` normalized), then the same
        // crate as a fallback — `module::helper(..)` is a local path.
        let norm = first.replace('_', "-");
        if let Some(dir) = crate_dirs.iter().find(|d| d.replace('_', "-") == norm) {
            candidates.push((dir.clone(), name.clone()));
        }
        candidates.push((this_crate.to_string(), name));
        candidates.dedup();
    }
    Some((candidates, display))
}

/// Walk back over `seg::seg::` pairs preceding the final ident at `j`.
fn path_segments(code: &[Tok], j: usize) -> Vec<String> {
    let mut segs = vec![code[j].text.clone()];
    let mut k = j;
    while k >= 3
        && code[k - 1].is_punct(':')
        && code[k - 2].is_punct(':')
        && code[k - 3].kind == TokKind::Ident
    {
        segs.push(code[k - 3].text.clone());
        k -= 3;
    }
    segs.reverse();
    segs
}

/// Given `code[j]` == ident `spawn` followed by `(`, return the index
/// of the matching `)`. Used to carve deferred-execution closures
/// (`thread::spawn(move || ..)`, scoped `s.spawn(..)`) out of the
/// *spawning* function's summary: the spawner does not block, and the
/// spawned thread does not hold the spawner's guards.
pub fn spawn_arg_end(code: &[Tok], j: usize) -> Option<usize> {
    if !code.get(j)?.is_ident("spawn") || !code.get(j + 1)?.is_punct('(') {
        return None;
    }
    let mut depth = 0i32;
    let mut k = j + 1;
    while let Some(t) = code.get(k) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        k += 1;
    }
    None
}

#[derive(Default)]
struct Summary {
    /// Direct primitive sites: (file, line, what).
    blockers: Vec<(String, u32, String)>,
    /// Call sites: candidate keys plus display path.
    calls: Vec<(Vec<FnKey>, String)>,
}

/// The propagated graph: for each function key that may block, the
/// primitive it reaches and how.
pub struct CallGraph {
    blocked: BTreeMap<FnKey, Blocked>,
    crate_dirs: BTreeSet<String>,
}

impl CallGraph {
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let crate_dirs: BTreeSet<String> = files.iter().map(|f| crate_of(&f.rel)).collect();
        let mut fns: BTreeMap<FnKey, Summary> = BTreeMap::new();
        for f in files {
            let krate = crate_of(&f.rel);
            for item in fn_items(f) {
                let slot = fns.entry((krate.clone(), item.name.clone())).or_default();
                summarize_body(f, &item, &krate, &crate_dirs, slot);
            }
        }
        // Seed with direct blockers, then propagate to callers until no
        // function changes. Insert-only, so termination is immediate:
        // every round either marks a new function or stops.
        let mut blocked: BTreeMap<FnKey, Blocked> = BTreeMap::new();
        for (key, s) in &fns {
            if let Some((file, line, what)) = s.blockers.first() {
                blocked.insert(
                    key.clone(),
                    Blocked {
                        what: what.clone(),
                        file: file.clone(),
                        line: *line,
                        chain: Vec::new(),
                    },
                );
            }
        }
        loop {
            let mut added: Vec<(FnKey, Blocked)> = Vec::new();
            for (key, s) in &fns {
                if blocked.contains_key(key) {
                    continue;
                }
                'calls: for (candidates, display) in &s.calls {
                    for cand in candidates {
                        if cand == key {
                            continue; // self-recursion is not evidence
                        }
                        if let Some(b) = blocked.get(cand) {
                            let mut chain = vec![display.clone()];
                            chain.extend(b.chain.iter().cloned());
                            added.push((
                                key.clone(),
                                Blocked {
                                    what: b.what.clone(),
                                    file: b.file.clone(),
                                    line: b.line,
                                    chain,
                                },
                            ));
                            break 'calls;
                        }
                    }
                }
            }
            if added.is_empty() {
                break;
            }
            for (k, b) in added {
                blocked.entry(k).or_insert(b);
            }
        }
        CallGraph {
            blocked,
            crate_dirs,
        }
    }

    /// If `code[j]` heads a call that may transitively block, return
    /// the display path and the propagation record.
    pub fn call_blocked(
        &self,
        code: &[Tok],
        j: usize,
        this_crate: &str,
    ) -> Option<(String, &Blocked)> {
        let (candidates, display) = call_candidates(code, j, this_crate, &self.crate_dirs)?;
        for cand in candidates {
            if let Some(b) = self.blocked.get(&cand) {
                return Some((display, b));
            }
        }
        None
    }
}

/// Record one function body's direct blockers and call sites, skipping
/// test lines and `spawn(..)` argument regions (deferred execution).
fn summarize_body(
    file: &SourceFile,
    item: &FnItem,
    krate: &str,
    crate_dirs: &BTreeSet<String>,
    out: &mut Summary,
) {
    let code = &file.code;
    let mut j = item.open;
    while j <= item.close && j < code.len() {
        if let Some(end) = spawn_arg_end(code, j) {
            j = end + 1;
            continue;
        }
        if file.is_test_line(code[j].line) {
            j += 1;
            continue;
        }
        if let Some(what) = classify(code, j) {
            out.blockers.push((file.rel.clone(), code[j].line, what));
        } else if let Some((candidates, display)) = call_candidates(code, j, krate, crate_dirs) {
            out.calls.push((candidates, display));
        }
        j += 1;
    }
    // Deterministic propagation: prefer the earliest-line direct
    // blocker as the representative site.
    out.blockers.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
}
