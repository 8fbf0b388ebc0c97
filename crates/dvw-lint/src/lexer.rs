//! A small hand-rolled Rust lexer.
//!
//! Just enough fidelity for line-level static analysis: identifiers,
//! numeric/string/char literals, lifetimes, single-character punctuation,
//! and comments (kept as tokens so the escape hatch can see them). It is
//! *not* a parser — the pass pattern-matches over the
//! token stream — but it is exact about what is code versus what is a
//! string or a comment, which is the part naive `grep`-style linting gets
//! wrong.

/// Token class. `Punct` carries exactly one character; multi-character
/// operators appear as adjacent `Punct` tokens on the same line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Number,
    Str,
    Char,
    Lifetime,
    Punct,
    Comment,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Cursor<'a> {
        Cursor {
            chars: src.chars().peekable(),
            line: 1,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c == Some('\n') {
            self.line += 1;
        }
        c
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into a token vector. Unterminated literals and comments are
/// tolerated (the remainder of the file becomes one token): the linter
/// must never panic on weird input, it only has to stay line-accurate.
pub fn lex(src: &str) -> Vec<Tok> {
    let mut cur = Cursor::new(src);
    let mut toks = Vec::new();
    while let Some(c) = cur.peek() {
        let line = cur.line;
        match c {
            _ if c.is_whitespace() => {
                cur.bump();
            }
            '/' => {
                cur.bump();
                match cur.peek() {
                    Some('/') => {
                        let mut text = String::from("/");
                        while let Some(n) = cur.peek() {
                            if n == '\n' {
                                break;
                            }
                            text.push(n);
                            cur.bump();
                        }
                        toks.push(Tok {
                            kind: TokKind::Comment,
                            text,
                            line,
                        });
                    }
                    Some('*') => {
                        cur.bump();
                        let mut text = String::from("/*");
                        let mut depth = 1u32;
                        while depth > 0 {
                            match cur.bump() {
                                None => break,
                                Some('*') if cur.peek() == Some('/') => {
                                    cur.bump();
                                    text.push_str("*/");
                                    depth -= 1;
                                }
                                Some('/') if cur.peek() == Some('*') => {
                                    cur.bump();
                                    text.push_str("/*");
                                    depth += 1;
                                }
                                Some(n) => text.push(n),
                            }
                        }
                        toks.push(Tok {
                            kind: TokKind::Comment,
                            text,
                            line,
                        });
                    }
                    _ => toks.push(Tok {
                        kind: TokKind::Punct,
                        text: "/".into(),
                        line,
                    }),
                }
            }
            '"' => {
                toks.push(lex_string(&mut cur, line));
            }
            'r' | 'b' => {
                // Possible raw/byte string prefixes: r", r#", b", br", b'.
                let mut prefix = String::new();
                prefix.push(c);
                cur.bump();
                if c == 'b' && cur.peek() == Some('r') {
                    prefix.push('r');
                    cur.bump();
                }
                match cur.peek() {
                    Some('"') => {
                        if prefix.ends_with('r') {
                            toks.push(lex_raw_string(&mut cur, line, 0));
                        } else {
                            toks.push(lex_string(&mut cur, line));
                        }
                    }
                    Some('#') if prefix.ends_with('r') => {
                        let mut hashes = 0usize;
                        while cur.peek() == Some('#') {
                            hashes += 1;
                            cur.bump();
                        }
                        if cur.peek() == Some('"') {
                            toks.push(lex_raw_string(&mut cur, line, hashes));
                        } else {
                            // `r#ident` raw identifier (hashes == 1).
                            let mut text = String::new();
                            while let Some(n) = cur.peek() {
                                if !is_ident_continue(n) {
                                    break;
                                }
                                text.push(n);
                                cur.bump();
                            }
                            toks.push(Tok {
                                kind: TokKind::Ident,
                                text,
                                line,
                            });
                        }
                    }
                    Some('\'') if prefix == "b" => {
                        cur.bump();
                        toks.push(lex_char_body(&mut cur, line));
                    }
                    _ => {
                        // Plain identifier starting with r/b.
                        let mut text = prefix;
                        while let Some(n) = cur.peek() {
                            if !is_ident_continue(n) {
                                break;
                            }
                            text.push(n);
                            cur.bump();
                        }
                        toks.push(Tok {
                            kind: TokKind::Ident,
                            text,
                            line,
                        });
                    }
                }
            }
            '\'' => {
                cur.bump();
                // Lifetime (`'a`) or char literal (`'x'`, `'\n'`).
                match cur.peek() {
                    Some(n) if is_ident_start(n) => {
                        let mut text = String::new();
                        text.push(n);
                        cur.bump();
                        while let Some(m) = cur.peek() {
                            if !is_ident_continue(m) {
                                break;
                            }
                            text.push(m);
                            cur.bump();
                        }
                        if cur.peek() == Some('\'') {
                            // Single-ident char like 'a'.
                            cur.bump();
                            toks.push(Tok {
                                kind: TokKind::Char,
                                text,
                                line,
                            });
                        } else {
                            toks.push(Tok {
                                kind: TokKind::Lifetime,
                                text,
                                line,
                            });
                        }
                    }
                    _ => toks.push(lex_char_body(&mut cur, line)),
                }
            }
            _ if is_ident_start(c) => {
                let mut text = String::new();
                while let Some(n) = cur.peek() {
                    if !is_ident_continue(n) {
                        break;
                    }
                    text.push(n);
                    cur.bump();
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(n) = cur.peek() {
                    // Good enough for ints, hex with underscores, and
                    // simple floats; `1..2` is left as Number("1") + puncts
                    // because `.` is only consumed when followed by a digit.
                    if is_ident_continue(n) {
                        text.push(n);
                        cur.bump();
                    } else if n == '.' {
                        let mut probe = cur.chars.clone();
                        probe.next();
                        match probe.peek() {
                            Some(d) if d.is_ascii_digit() => {
                                text.push('.');
                                cur.bump();
                            }
                            _ => break,
                        }
                    } else {
                        break;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Number,
                    text,
                    line,
                });
            }
            _ => {
                cur.bump();
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
            }
        }
    }
    toks
}

fn lex_string(cur: &mut Cursor, line: u32) -> Tok {
    // Opening quote is the current char.
    cur.bump();
    let mut text = String::new();
    while let Some(c) = cur.bump() {
        match c {
            '"' => break,
            '\\' => {
                text.push('\\');
                if let Some(e) = cur.bump() {
                    text.push(e);
                }
            }
            _ => text.push(c),
        }
    }
    Tok {
        kind: TokKind::Str,
        text,
        line,
    }
}

fn lex_raw_string(cur: &mut Cursor, line: u32, hashes: usize) -> Tok {
    // Current char is the opening quote.
    cur.bump();
    let mut text = String::new();
    'outer: while let Some(c) = cur.bump() {
        if c == '"' {
            let mut probe = cur.chars.clone();
            for _ in 0..hashes {
                if probe.peek() != Some(&'#') {
                    text.push('"');
                    continue 'outer;
                }
                probe.next();
            }
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
        text.push(c);
    }
    Tok {
        kind: TokKind::Str,
        text,
        line,
    }
}

fn lex_char_body(cur: &mut Cursor, line: u32) -> Tok {
    // Called just past the opening `'` for non-ident char literals.
    let mut text = String::new();
    match cur.bump() {
        Some('\\') => {
            text.push('\\');
            if let Some(e) = cur.bump() {
                text.push(e);
            }
        }
        Some(c) => text.push(c),
        None => {}
    }
    if cur.peek() == Some('\'') {
        cur.bump();
    }
    Tok {
        kind: TokKind::Char,
        text,
        line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let t = kinds("self.queue.lock()");
        assert_eq!(
            t,
            vec![
                (TokKind::Ident, "self".into()),
                (TokKind::Punct, ".".into()),
                (TokKind::Ident, "queue".into()),
                (TokKind::Punct, ".".into()),
                (TokKind::Ident, "lock".into()),
                (TokKind::Punct, "(".into()),
                (TokKind::Punct, ")".into()),
            ]
        );
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let t = kinds(r#"let s = "x.unwrap() // not code";"#);
        assert!(t.iter().all(|(k, x)| *k != TokKind::Ident || x != "unwrap"));
        assert_eq!(t.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
    }

    #[test]
    fn comments_are_tokens_with_lines() {
        let toks = lex("a\n// lint:allow(panic-path): reason\nb");
        let c = toks.iter().find(|t| t.kind == TokKind::Comment).unwrap();
        assert_eq!(c.line, 2);
        assert!(c.text.contains("lint:allow"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let t = kinds(r##"r#"panic!("x")"# "esc\"aped" 'q' '\n' 'life"##);
        assert_eq!(t[0].0, TokKind::Str);
        assert_eq!(t[1].0, TokKind::Str);
        assert_eq!(t[2].0, TokKind::Char);
        assert_eq!(t[3].0, TokKind::Char);
        assert_eq!(t[4].0, TokKind::Lifetime);
    }

    #[test]
    fn hex_numbers_keep_underscores() {
        let t = kinds("0xFFFF_0001");
        assert_eq!(t, vec![(TokKind::Number, "0xFFFF_0001".into())]);
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* a /* b */ c */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1].text, "x");
    }

    #[test]
    fn raw_strings_with_many_hashes() {
        // The delimiter is quote-plus-exactly-N-hashes; a shorter run
        // inside the literal must not terminate it.
        let t = kinds(r###"r##"has "# inside"## tail"###);
        assert_eq!(t[0], (TokKind::Str, "has \"# inside".into()));
        assert_eq!(t[1], (TokKind::Ident, "tail".into()));
    }

    #[test]
    fn byte_strings_are_strings_not_idents() {
        let t = kinds(r#"b"x.lock()" b'q' tail"#);
        assert_eq!(t[0], (TokKind::Str, "x.lock()".into()));
        assert_eq!(t[1], (TokKind::Char, "q".into()));
        assert_eq!(t[2], (TokKind::Ident, "tail".into()));
    }

    #[test]
    fn raw_byte_strings_swallow_their_body() {
        let t = kinds(r##"br#"self.rx.recv()"# tail"##);
        assert_eq!(t[0], (TokKind::Str, "self.rx.recv()".into()));
        assert_eq!(t[1], (TokKind::Ident, "tail".into()));
    }

    #[test]
    fn deeply_nested_block_comments_balance() {
        let toks = lex("/* 1 /* 2 /* 3 */ 2 */ /* 2b */ 1 */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokKind::Comment);
        assert_eq!(toks[1].text, "x");
    }

    #[test]
    fn string_bodies_never_leak_code_tokens() {
        // grep-style linting would see a lock and a send in here; the
        // lexer must see exactly three string tokens and a semicolon.
        let src = r###"r#"g.lock()"# b".send(x)" "rx.recv()";"###;
        let t = kinds(src);
        assert_eq!(t.iter().filter(|(k, _)| *k == TokKind::Str).count(), 3);
        assert!(t
            .iter()
            .all(|(k, _)| *k == TokKind::Str || *k == TokKind::Punct));
    }

    #[test]
    fn multiline_raw_strings_keep_line_numbers_accurate() {
        let toks = lex("r#\"a\nb\nc\"#\nafter");
        assert_eq!(toks[0].kind, TokKind::Str);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].text, "after");
        assert_eq!(toks[1].line, 4);
    }

    #[test]
    fn raw_identifiers_stay_identifiers() {
        let t = kinds("r#type loop");
        assert_eq!(t[0], (TokKind::Ident, "type".into()));
        assert_eq!(t[1], (TokKind::Ident, "loop".into()));
    }

    #[test]
    fn float_vs_range() {
        let t = kinds("1.5 1..2");
        assert_eq!(t[0], (TokKind::Number, "1.5".into()));
        assert_eq!(t[1], (TokKind::Number, "1".into()));
        assert_eq!(t[2], (TokKind::Punct, ".".into()));
        assert_eq!(t[3], (TokKind::Punct, ".".into()));
        assert_eq!(t[4], (TokKind::Number, "2".into()));
    }
}
