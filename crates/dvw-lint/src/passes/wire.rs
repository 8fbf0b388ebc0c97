//! Pass 2 — wire-protocol invariants.
//!
//! The workstation and the remote compute server only stay compatible by
//! convention, and the conventions live in `proto.rs` constants. This
//! pass asserts, over the configured proto files:
//!
//! * every `PROC_*` id is unique across the workspace;
//! * no application id collides with the reserved built-in range
//!   (`0xFFFF_0000..`, home of `PROC_PING`) unless the file is explicitly
//!   allowed to define built-ins;
//! * `PROTOCOL_VERSION` equals the baseline recorded in `lint.toml`
//!   unless a `wire:non-additive` marker comment declares a breaking
//!   change, in which case it must be *greater* (bump then update the
//!   baseline and drop the marker when the release ships);
//! * every inherent `fn encode*` in a proto file's `impl T` block has a
//!   sibling `fn decode*` — one-way types rot into undecodable frames.

use crate::config::Config;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::{Finding, Pass, Sink};
use std::collections::HashMap;

pub fn check(files: &[SourceFile], cfg: &Config, sink: &mut Sink) {
    check_proc_ids(files, cfg, sink);
    check_protocol_version(files, cfg, sink);
    check_dataset_format_version(files, cfg, sink);
    check_inherent_pairs(files, cfg, sink);
}

struct ProcConst {
    file: String,
    line: u32,
    name: String,
    value: u64,
}

/// `const PROC_X: u32 = <int>;` declarations in the proto files.
fn collect_proc_consts(files: &[SourceFile], cfg: &Config) -> Vec<ProcConst> {
    let mut out = Vec::new();
    for f in files {
        if !cfg.proto_files.iter().any(|p| p == &f.rel) {
            continue;
        }
        let code = &f.code;
        for (i, t) in code.iter().enumerate() {
            if !t.is_ident("const") {
                continue;
            }
            let (name, colon, ty) = (code.get(i + 1), code.get(i + 2), code.get(i + 3));
            let (Some(name), Some(colon), Some(ty)) = (name, colon, ty) else {
                continue;
            };
            if !(name.text.starts_with("PROC_") && colon.is_punct(':') && ty.is_ident("u32")) {
                continue;
            }
            // `= <number> ;`
            let (eq, val) = (code.get(i + 4), code.get(i + 5));
            let (Some(eq), Some(val)) = (eq, val) else {
                continue;
            };
            if !eq.is_punct('=') || val.kind != TokKind::Number {
                continue;
            }
            if let Some(v) = parse_int(&val.text) {
                out.push(ProcConst {
                    file: f.rel.clone(),
                    line: name.line,
                    name: name.text.clone(),
                    value: v,
                });
            }
        }
    }
    out
}

fn check_proc_ids(files: &[SourceFile], cfg: &Config, sink: &mut Sink) {
    let consts = collect_proc_consts(files, cfg);
    let mut by_value: HashMap<u64, &ProcConst> = HashMap::new();
    for c in &consts {
        if let Some(first) = by_value.get(&c.value) {
            sink.push(Finding::new(
                &c.file,
                c.line,
                Pass::WireProtocol,
                format!(
                    "proc id {:#010X} of `{}` collides with `{}` ({}:{})",
                    c.value, c.name, first.name, first.file, first.line
                ),
            ));
        } else {
            by_value.insert(c.value, c);
        }
        let reserved_ok = cfg.reserved_allowed.iter().any(|p| p == &c.file);
        if c.value >= cfg.reserved_min && !reserved_ok {
            sink.push(Finding::new(
                &c.file,
                c.line,
                Pass::WireProtocol,
                format!(
                    "proc id {:#010X} of `{}` lies in the reserved built-in range (>= {:#010X}, \
                     home of PROC_PING)",
                    c.value, c.name, cfg.reserved_min
                ),
            ));
        }
    }
}

fn check_protocol_version(files: &[SourceFile], cfg: &Config, sink: &mut Sink) {
    let mut declared: Option<(String, u32, u64)> = None;
    let mut marker: Option<(String, u32)> = None;
    for f in files {
        if !cfg.proto_files.iter().any(|p| p == &f.rel) {
            continue;
        }
        let code = &f.code;
        for (i, t) in code.iter().enumerate() {
            if t.is_ident("PROTOCOL_VERSION")
                && i > 0
                && code[i - 1].is_ident("const")
                && declared.is_none()
            {
                if let Some(val) = code.get(i + 4) {
                    if let Some(v) = parse_int(&val.text) {
                        declared = Some((f.rel.clone(), t.line, v));
                    }
                }
            }
        }
        if marker.is_none() {
            if let Some(c) = f
                .comments
                .iter()
                .find(|c| c.text.contains(&cfg.non_additive_marker))
            {
                marker = Some((f.rel.clone(), c.line));
            }
        }
    }
    let Some((file, line, version)) = declared else {
        if !cfg.proto_files.is_empty() {
            sink.push(Finding::new(
                &cfg.proto_files[0],
                1,
                Pass::WireProtocol,
                "no `const PROTOCOL_VERSION` found in proto files".into(),
            ));
        }
        return;
    };
    match marker {
        Some((mfile, mline)) if version <= cfg.protocol_version => {
            sink.push(Finding::new(
                &mfile,
                mline,
                Pass::WireProtocol,
                format!(
                    "`{}` marker present but PROTOCOL_VERSION is still {} (baseline {}); bump it",
                    cfg.non_additive_marker, version, cfg.protocol_version
                ),
            ));
        }
        None if version != cfg.protocol_version => {
            sink.push(Finding::new(
                &file,
                line,
                Pass::WireProtocol,
                format!(
                    "PROTOCOL_VERSION is {} but lint.toml baseline is {}; either add a `{}` \
                     marker for a breaking change or update the baseline",
                    version, cfg.protocol_version, cfg.non_additive_marker
                ),
            ));
        }
        _ => {}
    }
}

/// The on-disk container is versioned independently of the wire protocol:
/// `DATASET_FORMAT_VERSION` must bump iff the container layout changes
/// (declared with a `format:layout-change` marker comment), and a layout
/// change never touches `PROTOCOL_VERSION` — the protocol baseline above
/// keeps enforcing that separately. Disabled when `format_files` is empty
/// or the baseline is 0.
fn check_dataset_format_version(files: &[SourceFile], cfg: &Config, sink: &mut Sink) {
    if cfg.format_files.is_empty() || cfg.dataset_format_version == 0 {
        return;
    }
    let mut declared: Option<(String, u32, u64)> = None;
    let mut marker: Option<(String, u32)> = None;
    for f in files {
        if !cfg.format_files.iter().any(|p| p == &f.rel) {
            continue;
        }
        let code = &f.code;
        for (i, t) in code.iter().enumerate() {
            if t.is_ident("DATASET_FORMAT_VERSION")
                && i > 0
                && code[i - 1].is_ident("const")
                && declared.is_none()
            {
                if let Some(val) = code.get(i + 4) {
                    if let Some(v) = parse_int(&val.text) {
                        declared = Some((f.rel.clone(), t.line, v));
                    }
                }
            }
        }
        if marker.is_none() {
            if let Some(c) = f
                .comments
                .iter()
                .find(|c| c.text.contains(&cfg.format_marker))
            {
                marker = Some((f.rel.clone(), c.line));
            }
        }
    }
    let Some((file, line, version)) = declared else {
        sink.push(Finding::new(
            &cfg.format_files[0],
            1,
            Pass::WireProtocol,
            "no `const DATASET_FORMAT_VERSION` found in format files".into(),
        ));
        return;
    };
    match marker {
        Some((mfile, mline)) if version <= cfg.dataset_format_version => {
            sink.push(Finding::new(
                &mfile,
                mline,
                Pass::WireProtocol,
                format!(
                    "`{}` marker present but DATASET_FORMAT_VERSION is still {} (baseline {}); \
                     a container layout change must bump it (PROTOCOL_VERSION stays untouched)",
                    cfg.format_marker, version, cfg.dataset_format_version
                ),
            ));
        }
        None if version != cfg.dataset_format_version => {
            sink.push(Finding::new(
                &file,
                line,
                Pass::WireProtocol,
                format!(
                    "DATASET_FORMAT_VERSION is {} but lint.toml baseline is {}; a version bump \
                     requires a `{}` marker declaring the container layout change",
                    version, cfg.dataset_format_version, cfg.format_marker
                ),
            ));
        }
        _ => {}
    }
}

/// Inherent pairing inside proto files: an `impl T {` block defining
/// `fn encode` / `fn encode_into` requires some impl of `T` in the same
/// file to define `fn decode` / `fn decode_from`.
fn check_inherent_pairs(files: &[SourceFile], cfg: &Config, sink: &mut Sink) {
    for f in files {
        if !cfg.proto_files.iter().any(|p| p == &f.rel) {
            continue;
        }
        let code = &f.code;
        // type name -> (has_encode_line, has_decode)
        let mut types: HashMap<String, (Option<u32>, bool)> = HashMap::new();
        let mut i = 0usize;
        while i < code.len() {
            if !code[i].is_ident("impl") {
                i += 1;
                continue;
            }
            // Inherent impl: `impl TYPE {` (no `for`). TYPE is one ident.
            let (Some(ty), Some(open)) = (code.get(i + 1), code.get(i + 2)) else {
                i += 1;
                continue;
            };
            if ty.kind != TokKind::Ident || !open.is_punct('{') {
                i += 1;
                continue;
            }
            // Walk the block, tracking fn names at block depth 1.
            let mut depth = 0i32;
            let mut j = i + 2;
            let entry = types.entry(ty.text.clone()).or_insert((None, false));
            while j < code.len() {
                let t = &code[j];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.is_ident("fn") && depth == 1 {
                    if let Some(name) = code.get(j + 1) {
                        match name.text.as_str() {
                            "encode" | "encode_into" if entry.0.is_none() => {
                                entry.0 = Some(name.line);
                            }
                            "decode" | "decode_from" => entry.1 = true,
                            _ => {}
                        }
                    }
                }
                j += 1;
            }
            i = j + 1;
        }
        for (ty, (encode_line, has_decode)) in types {
            if let (Some(line), false) = (encode_line, has_decode) {
                crate::push_unless_allowed(
                    f,
                    sink,
                    Pass::WireProtocol,
                    line,
                    format!(
                        "`{ty}` defines `encode` but no `decode`/`decode_from` in {}",
                        f.rel
                    ),
                );
            }
        }
    }
}

fn parse_int(text: &str) -> Option<u64> {
    let t = text.replace('_', "");
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}
