//! wire-stability: the protocol's frame tags, binary kind bytes and
//! error codes are extracted from `crates/wire` *source* and
//! cross-checked against the golden tables in `docs/PROTOCOL.md`. A
//! tag, kind or code can then only change with a matching (reviewed)
//! doc edit — the wire format cannot drift silently.

use crate::lexer::{Tok, Token};
use crate::scan::SourceFile;
use crate::{Lint, Violation};

/// Cross-checks `frame.rs` against the protocol document text.
pub fn run(frame: &SourceFile, protocol_md: &str, out: &mut Vec<Violation>) {
    let mut push = |line: u32, message: String| {
        out.push(Violation {
            lint: Lint::WireStability,
            file: frame.rel_path.clone(),
            line,
            message,
        });
    };

    // --- Error codes: `enum ErrorCode { Name = N, ... }` ---
    let codes = error_codes(&frame.tokens);
    if codes.is_empty() {
        push(
            1,
            "could not extract any `Name = N` discriminants from `enum ErrorCode` — \
             the extraction itself has rotted; fix the lint or the enum"
                .to_owned(),
        );
    }
    let doc_codes = table_codes(protocol_md);
    for (name, value, line) in &codes {
        if !doc_codes.contains(value) {
            push(
                *line,
                format!(
                    "error code `{name} = {value}` is not documented in the \
                     docs/PROTOCOL.md error-code table"
                ),
            );
        }
    }
    for value in &doc_codes {
        if !codes.iter().any(|(_, v, _)| v == value) {
            push(
                1,
                format!(
                    "docs/PROTOCOL.md documents error code {value}, which `enum ErrorCode` \
                     does not define — codes are append-only, never removed"
                ),
            );
        }
    }

    // --- Kind bytes: `mod kind { const NAME: u8 = 0xNN; ... }` ---
    // Both directions, like the error codes: every const must have the
    // same byte for the same frame in the kind table, and every table
    // row must be a const.
    let kinds = kind_bytes(&frame.tokens);
    let doc_kinds = table_kinds(protocol_md);
    for (tag, value, line) in &kinds {
        if !doc_kinds.contains(&(*value, tag.clone())) {
            push(
                *line,
                format!(
                    "kind byte 0x{value:02X} of frame \"{tag}\" does not match the \
                     docs/PROTOCOL.md kind table"
                ),
            );
        }
    }
    for (value, tag) in &doc_kinds {
        if !kinds.iter().any(|(t, v, _)| v == value && t == tag) {
            push(
                1,
                format!(
                    "docs/PROTOCOL.md documents kind 0x{value:02X} for \"{tag}\", which \
                     `mod kind` does not define"
                ),
            );
        }
    }

    // --- Frame tags: the string literals returned by `fn tag` ---
    let tags = tag_strings(&frame.tokens);
    for (tag, _, line) in &kinds {
        if !tags.iter().any(|(t, _)| t == tag) {
            push(
                *line,
                format!("kind const for \"{tag}\" names no frame tag returned by `fn tag`"),
            );
        }
    }
    if tags.is_empty() {
        push(
            1,
            "could not extract any tag string literals from `fn tag` — the extraction \
             itself has rotted; fix the lint or the function"
                .to_owned(),
        );
    }
    for (tag, line) in &tags {
        // Binary frames are documented by the kind table (checked
        // above); JSON frames need a body example.
        if kinds.iter().any(|(t, _, _)| t == tag) {
            continue;
        }
        let needle = format!("\"type\":\"{tag}\"");
        if !protocol_md.contains(&needle) {
            push(
                *line,
                format!(
                    "frame tag \"{tag}\" has no `{needle}` example in docs/PROTOCOL.md — \
                     every frame type must be documented"
                ),
            );
        }
    }
}

/// `(name, discriminant, line)` triples from `enum ErrorCode`.
fn error_codes(toks: &[Token]) -> Vec<(String, u16, u32)> {
    let mut out = Vec::new();
    let Some(body) = item_body(toks, "enum", "ErrorCode") else {
        return out;
    };
    let mut i = body.0;
    while i + 2 < body.1 {
        if let (Tok::Ident(name), Tok::Punct('='), Tok::Num(num)) =
            (&toks[i].tok, &toks[i + 1].tok, &toks[i + 2].tok)
        {
            if let Ok(v) = num.parse::<u16>() {
                out.push((name.clone(), v, toks[i].line));
            }
            i += 3;
        } else {
            i += 1;
        }
    }
    out
}

/// `(tag, byte, line)` triples from the `const NAME: u8 = N;` items of
/// `mod kind`; the tag is the lowercased const name.
fn kind_bytes(toks: &[Token]) -> Vec<(String, u8, u32)> {
    let Some((start, end)) = item_body(toks, "mod", "kind") else {
        return Vec::new();
    };
    toks[start..end]
        .windows(6)
        .filter_map(|w| match (&w[0].tok, &w[1].tok, &w[3].tok, &w[5].tok) {
            (Tok::Ident(kw), Tok::Ident(name), Tok::Ident(ty), Tok::Num(num))
                if kw == "const" && ty == "u8" && w[2].is_punct(':') && w[4].is_punct('=') =>
            {
                parse_u8(num).map(|v| (name.to_lowercase(), v, w[1].line))
            }
            _ => None,
        })
        .collect()
}

/// A `u8` literal: decimal or `0x` hex, `_` separators and a `u8`
/// suffix allowed.
fn parse_u8(lit: &str) -> Option<u8> {
    let digits: String = lit.trim_end_matches("u8").replace('_', "");
    match digits.strip_prefix("0x") {
        Some(hex) => u8::from_str_radix(hex, 16).ok(),
        None => digits.parse().ok(),
    }
}

/// `(byte, tag)` rows of the kind table: ``| `0xNN` | `tag` | … |``.
fn table_kinds(protocol_md: &str) -> Vec<(u8, String)> {
    let mut out = Vec::new();
    for line in protocol_md.lines() {
        let mut cells = line.trim().split('|').map(|c| c.trim().trim_matches('`'));
        if cells.next() != Some("") {
            continue;
        }
        let (Some(kind), Some(tag)) = (cells.next(), cells.next()) else {
            continue;
        };
        if let Some(v) = kind
            .strip_prefix("0x")
            .and_then(|h| u8::from_str_radix(h, 16).ok())
        {
            out.push((v, tag.to_owned()));
        }
    }
    out
}

/// `(tag, line)` pairs: every string literal inside `fn tag`.
fn tag_strings(toks: &[Token]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let Some(body) = item_body(toks, "fn", "tag") else {
        return out;
    };
    for t in &toks[body.0..body.1] {
        if let Tok::Str(s) = &t.tok {
            out.push((s.clone(), t.line));
        }
    }
    out
}

/// Token range `(start, end)` of the brace-delimited body of
/// `<kw> <name>`.
fn item_body(toks: &[Token], kw: &str, name: &str) -> Option<(usize, usize)> {
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].ident() == Some(kw) && toks[i + 1].ident() == Some(name) {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].is_punct(';') {
                    break;
                }
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let mut depth = 1usize;
                let start = j + 1;
                let mut k = start;
                while k < toks.len() && depth > 0 {
                    if toks[k].is_punct('{') {
                        depth += 1;
                    } else if toks[k].is_punct('}') {
                        depth -= 1;
                    }
                    k += 1;
                }
                return Some((start, k.saturating_sub(1)));
            }
        }
        i += 1;
    }
    None
}

/// Error codes from the markdown table: rows are `| N | meaning | … |`.
fn table_codes(protocol_md: &str) -> Vec<u16> {
    let mut out = Vec::new();
    for line in protocol_md.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        if let Some(cell) = line.split('|').nth(1) {
            if let Ok(v) = cell.trim().parse::<u16>() {
                out.push(v);
            }
        }
    }
    out
}
