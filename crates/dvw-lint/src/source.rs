//! Per-file source model: tokens, test-region classification, and the
//! `lint:allow` escape hatch.
//!
//! Test code is exempt (a test that blocks under a guard stalls only
//! itself — a server path that does stalls every client), so each file
//! is classified once: lines inside `#[cfg(test)]` modules, `#[test]`
//! / `#[bench]` functions, or files under `tests/` / `benches/` /
//! `examples/` count as test lines.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::{HashMap, HashSet};

/// A `// lint:allow(<pass>): <reason>` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    pub pass: String,
    pub reason: String,
    pub line: u32,
}

/// One lexed and classified source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Code tokens (comments stripped).
    pub code: Vec<Tok>,
    /// 1-based lines that belong to test-only regions.
    pub test_lines: HashSet<u32>,
    /// Escape hatches keyed by the first *covered* line: an allow covers
    /// its own line and the line below it, so it can sit inline or on the
    /// line above the offending expression.
    pub allows: HashMap<u32, Vec<Allow>>,
}

impl SourceFile {
    pub fn parse(rel: &str, text: &str) -> SourceFile {
        let mut code = Vec::new();
        let mut allows: HashMap<u32, Vec<Allow>> = HashMap::new();
        for t in lex(text) {
            if t.kind != TokKind::Comment {
                code.push(t);
            } else if let Some(a) = parse_allow(&t.text, t.line) {
                allows.entry(a.line).or_default().push(a);
            }
        }
        let whole_file_test = rel.contains("/tests/")
            || rel.starts_with("tests/")
            || rel.contains("/benches/")
            || rel.contains("/examples/");
        let test_lines = if whole_file_test {
            (1..=last_line(&code)).collect()
        } else {
            find_test_regions(&code)
        };
        SourceFile {
            rel: rel.to_string(),
            code,
            test_lines,
            allows,
        }
    }

    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.contains(&line)
    }

    /// Look up an escape hatch for `pass` covering `line` (same line or
    /// the line above). Returns the allow so the caller can verify the
    /// reason is non-empty.
    pub fn allow_for(&self, pass: &str, line: u32) -> Option<&Allow> {
        for covered in [line, line.saturating_sub(1)] {
            if let Some(list) = self.allows.get(&covered) {
                if let Some(a) = list.iter().find(|a| a.pass == pass) {
                    return Some(a);
                }
            }
        }
        None
    }
}

fn last_line(code: &[Tok]) -> u32 {
    code.last().map(|t| t.line).unwrap_or(1)
}

/// Parse `lint:allow(<pass>): <reason>` out of a comment body. The reason
/// may be empty here — the pass reports that as its own finding, so the
/// hatch can't be used silently.
fn parse_allow(comment: &str, line: u32) -> Option<Allow> {
    let idx = comment.find("lint:allow(")?;
    let rest = &comment[idx + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let pass = rest[..close].trim().to_string();
    let after = &rest[close + 1..];
    let reason = after
        .strip_prefix(':')
        .map(|r| r.trim().to_string())
        .unwrap_or_default();
    Some(Allow { pass, reason, line })
}

/// Collect the 1-based line ranges of test-only items: a `#[cfg(test)]` /
/// `#[test]` / `#[bench]` attribute followed by an item with a braced
/// body. Brace matching over the token stream keeps this robust to
/// whatever is inside.
fn find_test_regions(code: &[Tok]) -> HashSet<u32> {
    let mut out = HashSet::new();
    let mut i = 0usize;
    while i < code.len() {
        if !(code[i].is_punct('#') && i + 1 < code.len() && code[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_start_line = code[i].line;
        // Span the attribute's brackets.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut idents: Vec<&str> = Vec::new();
        while j < code.len() {
            let t = &code[j];
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident {
                idents.push(&t.text);
            }
            j += 1;
        }
        let is_test_attr = match idents.first().copied() {
            // `cfg(not(test))` gates *live* code — don't classify it.
            Some("cfg") => idents.contains(&"test") && !idents.contains(&"not"),
            Some("test") | Some("bench") => idents.len() == 1,
            _ => false,
        };
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Find the item body: first `{` before a same-level `;`.
        let mut k = j + 1;
        let mut body_open = None;
        let mut angle = 0i32;
        while k < code.len() {
            let t = &code[k];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle = (angle - 1).max(0);
            } else if t.is_punct(';') && angle == 0 {
                break; // `mod name;` — out-of-line module, nothing to span.
            } else if t.is_punct('{') {
                body_open = Some(k);
                break;
            }
            k += 1;
        }
        if let Some(open) = body_open {
            let mut braces = 0i32;
            let mut m = open;
            let mut end_line = code[open].line;
            while m < code.len() {
                if code[m].is_punct('{') {
                    braces += 1;
                } else if code[m].is_punct('}') {
                    braces -= 1;
                    if braces == 0 {
                        end_line = code[m].line;
                        break;
                    }
                }
                end_line = code[m].line;
                m += 1;
            }
            for line in attr_start_line..=end_line {
                out.insert(line);
            }
            i = m + 1;
        } else {
            i = k + 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
pub fn live() {
    work();
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        x.unwrap();
    }
}
"#;

    #[test]
    fn cfg_test_module_lines_are_test() {
        let f = SourceFile::parse("crates/x/src/lib.rs", SRC);
        assert!(!f.is_test_line(3)); // work();
        assert!(f.is_test_line(10)); // x.unwrap();
        assert!(f.is_test_line(6)); // the attribute itself
    }

    #[test]
    fn test_attr_fn_outside_module() {
        let src = "fn a() {}\n#[test]\nfn t() {\n  boom();\n}\nfn b() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(1));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn tests_dir_is_all_test() {
        let f = SourceFile::parse("tests/e2e.rs", "fn x() { a.unwrap(); }");
        assert!(f.is_test_line(1));
    }

    #[test]
    fn allow_parsing_and_coverage() {
        let src = "// lint:allow(blocking): bounded by caller\nfoo.recv();\nbar.recv(); // lint:allow(blocking): checked above\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.allow_for("blocking", 2).is_some());
        assert!(f.allow_for("blocking", 3).is_some());
        assert!(f.allow_for("hygiene", 2).is_none());
    }

    #[test]
    fn allow_without_reason_is_flagged_by_caller() {
        let f = SourceFile::parse(
            "crates/x/src/lib.rs",
            "foo.recv(); // lint:allow(blocking)\n",
        );
        let a = f.allow_for("blocking", 1).unwrap();
        assert!(a.reason.is_empty());
    }

    #[test]
    fn cfg_not_test_is_live() {
        let src = "#[cfg(feature = \"extra\")]\nfn f() { x.unwrap(); }\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.is_test_line(2));
    }
}
