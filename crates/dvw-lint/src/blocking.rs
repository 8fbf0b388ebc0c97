//! The interprocedural blocking-while-locked analysis.
//!
//! The paper's serial multi-user execution model means one stalled
//! server thread delays every connected client, so blocking while a
//! `MutexGuard`/`RwLockGuard` is live turns a local wait into a global
//! one (any thread touching that lock stalls too). This pass:
//!
//! * simulates guard lifetimes per function (`let g = x.lock();` holds
//!   until `drop(g)` or block end; temporaries die at `;`) for every
//!   observed guard;
//! * classifies blocking primitives (bounded channel `send`/`recv`,
//!   thread `join`, condvar waits, socket/file reads, `sleep` backoff)
//!   and consults the fixed-point call graph
//!   ([`crate::callgraph::CallGraph`]) so a call that *transitively*
//!   reaches a primitive — across crates — is flagged too;
//! * flags any blocking site inside a rayon `par_iter`-family closure
//!   regardless of guards: on the paper's host a stalled pool worker is
//!   a stalled pool;
//! * resets held guards inside `spawn(..)` closures (the spawned thread
//!   does not inherit the spawner's guards) while still tracking guards
//!   the closure acquires itself — this is what catches a prefetch
//!   worker body that blocks under its own state lock.
//!
//! `// lint:allow(blocking): <reason>` suppresses a finding with a
//! written justification (e.g. a token-channel send that is provably
//! bounded).

use crate::callgraph::{classify, crate_of, fn_items, spawn_arg_end, CallGraph};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::{Finding, CRATES};

const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];

const PAR_METHODS: [&str; 6] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_bridge",
];

/// Every guard held across a blocking call, and every blocking call in
/// a rayon closure, in the non-test code of [`CRATES`].
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let graph = CallGraph::build(files);
    let mut findings = Vec::new();
    for f in files {
        let krate = crate_of(&f.rel);
        if !CRATES.contains(&krate.as_str()) {
            continue;
        }
        for item in fn_items(f) {
            check_body(f, &item, &krate, &graph, &mut findings);
        }
    }
    findings
}

/// A live guard: the lock's field name, its `let` binding (temporaries
/// die at `;`), and the brace depth it was bound at.
struct Held {
    name: String,
    guard: Option<String>,
    depth: i32,
}

fn check_body(
    file: &SourceFile,
    item: &crate::callgraph::FnItem,
    krate: &str,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    let code = &file.code;
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    let mut pending_let: Option<String> = None;
    // Guards stashed while scanning a `spawn(..)` argument (the closure
    // runs on another thread without them); restored at the region end.
    let mut spawn_stack: Vec<(usize, Vec<Held>)> = Vec::new();
    // Active `par_iter`-family statement: (last token index, method).
    let mut par_region: Option<(usize, String)> = None;

    let mut j = item.open;
    while j <= item.close && j < code.len() {
        while let Some((_, saved)) = spawn_stack.pop_if(|(end, _)| j > *end) {
            held = saved;
        }
        if par_region
            .as_ref()
            .map(|(end, _)| j > *end)
            .unwrap_or(false)
        {
            par_region = None;
        }
        let t = &code[j];
        let test = file.is_test_line(t.line);
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            held.retain(|h| h.depth <= depth);
            if depth == 0 {
                break;
            }
        } else if t.is_punct(';') {
            held.retain(|h| h.guard.is_some());
            pending_let = None;
        } else if t.is_ident("let") {
            if let Some(n) = code.get(j + 1) {
                let n = if n.is_ident("mut") {
                    code.get(j + 2)
                } else {
                    Some(n)
                };
                if let Some(n) = n {
                    // A lowercase ident is a binding; uppercase is an
                    // enum-variant pattern (`if let Some(x) = ..`),
                    // whose lock temporary dies at statement end.
                    if n.kind == TokKind::Ident
                        && n.text
                            .chars()
                            .next()
                            .map(|c| c.is_lowercase() || c == '_')
                            .unwrap_or(false)
                    {
                        pending_let = Some(n.text.clone());
                    }
                }
            }
        } else if t.is_ident("drop") && code.get(j + 1).map(|n| n.is_punct('(')).unwrap_or(false) {
            if let Some(v) = code.get(j + 2) {
                held.retain(|h| h.guard.as_deref() != Some(v.text.as_str()));
            }
        } else if let Some(end) = (!test).then(|| spawn_arg_end(code, j)).flatten() {
            spawn_stack.push((end, std::mem::take(&mut held)));
        } else if t.kind == TokKind::Ident
            && PAR_METHODS.contains(&t.text.as_str())
            && j > 0
            && code[j - 1].is_punct('.')
            && code.get(j + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && !test
        {
            par_region = Some((statement_end(code, j, item.close), t.text.clone()));
        } else if t.kind == TokKind::Ident
            && ACQUIRE_METHODS.contains(&t.text.as_str())
            && j > 0
            && code[j - 1].is_punct('.')
            && code.get(j + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && code.get(j + 2).map(|n| n.is_punct(')')).unwrap_or(false)
        {
            // Zero-arg `.lock()`/`.read()`/`.write()` with an ident
            // receiver: a guard is born.
            if j >= 2 && code[j - 2].kind == TokKind::Ident && !test {
                held.push(Held {
                    name: code[j - 2].text.clone(),
                    guard: pending_let.take(),
                    depth,
                });
            }
        } else if let Some(what) = (!test).then(|| classify(code, j)).flatten() {
            if let Some((_, par)) = &par_region {
                crate::push_unless_allowed(
                    file,
                    out,
                    t.line,
                    format!(
                        "blocks on {what} inside a `.{par}()` closure — a stalled rayon worker \
                         stalls the whole pool"
                    ),
                );
            }
            if !held.is_empty() {
                crate::push_unless_allowed(
                    file,
                    out,
                    t.line,
                    format!(
                        "blocks on {what} while holding {} — drop the guard before blocking",
                        guard_list(&held)
                    ),
                );
            }
        } else if !test && (!held.is_empty() || par_region.is_some()) {
            if let Some((display, b)) = graph.call_blocked(code, j, krate) {
                if let Some((_, par)) = &par_region {
                    crate::push_unless_allowed(
                        file,
                        out,
                        t.line,
                        format!(
                            "calls `{display}`, which may block ({}), inside a `.{par}()` closure \
                             — a stalled rayon worker stalls the whole pool",
                            b.describe()
                        ),
                    );
                }
                if !held.is_empty() {
                    crate::push_unless_allowed(
                        file,
                        out,
                        t.line,
                        format!(
                            "calls `{display}`, which may block ({}), while holding {} — drop \
                             the guard before the call",
                            b.describe(),
                            guard_list(&held)
                        ),
                    );
                }
            }
        }
        j += 1;
    }
}

fn guard_list(held: &[Held]) -> String {
    let names: Vec<String> = held.iter().map(|h| format!("`{}` guard", h.name)).collect();
    names.join(", ")
}

/// Index of the `;` that ends the statement containing `code[j]`, at
/// the same brace depth (the whole `v.par_iter().map(..).collect();`
/// chain). Falls back to the body end for expression-position tails.
fn statement_end(code: &[crate::lexer::Tok], j: usize, close: usize) -> usize {
    let mut depth = 0i32;
    let mut k = j;
    while k <= close && k < code.len() {
        let t = &code[k];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return k;
            }
        } else if t.is_punct(';') && depth == 0 {
            return k;
        }
        k += 1;
    }
    close
}
