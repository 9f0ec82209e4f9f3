//! A small hand-rolled Rust token scanner.
//!
//! This is deliberately *not* a parser: the container has no crates.io
//! access, so there is no `syn`, and the rules this crate enforces are
//! honest about being line/token-level checks. The scanner's one job is to
//! never report a token that the compiler would not see — everything
//! inside comments, string/char/byte literals and doc text is stripped —
//! and to carry just enough structure for the rules:
//!
//! * identifier and punctuation tokens with 1-based line numbers;
//! * which tokens sit inside `#[cfg(test)]` items (skipped by every rule);
//! * `// lint:allow(<rule>, …) <reason>` escape-hatch comments;
//! * lines carrying a `// SAFETY:` comment (for the `safety-comment` rule).
//!
//! Known, accepted limits of the token-level approach: it does not resolve
//! paths (a local type named `HashMap` is flagged like the std one), and
//! `lint:allow` / `SAFETY:` markers are only recognized in line comments,
//! not block comments.

use std::collections::BTreeSet;

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword (including raw identifiers, without the `r#`).
    Ident,
    /// Numeric literal (kept as one token so look-back windows count it
    /// as a single expression atom).
    Number,
    /// A lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// One punctuation character.
    Punct(char),
}

/// One scanned token.
#[derive(Debug, Clone)]
pub(crate) struct Token {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// Inside a `#[cfg(test)]` item (test modules/functions); rules skip
    /// these tokens.
    pub in_test: bool,
}

/// One `// lint:allow(<rules>) <reason>` comment.
#[derive(Debug, Clone)]
pub(crate) struct AllowSite {
    /// Line the comment sits on.
    pub line: u32,
    /// Rule names inside the parentheses, as written.
    pub rules: Vec<String>,
    /// Free-text justification after the closing parenthesis.
    pub reason: String,
    /// True when the comment trails code on the same line (applies to that
    /// line); false when it stands alone (applies to the next code line).
    pub trailing: bool,
}

/// Scanner output for one file.
#[derive(Debug, Default)]
pub(crate) struct Scan {
    pub tokens: Vec<Token>,
    pub allows: Vec<AllowSite>,
    /// Lines whose trailing/standalone line comment contains `SAFETY:`.
    pub safety_lines: BTreeSet<u32>,
    /// Lines carrying at least one token (code lines).
    pub code_lines: BTreeSet<u32>,
}

/// Scans `source` into tokens plus the comment-borne metadata above.
pub(crate) fn scan(source: &str) -> Scan {
    let bytes = source.as_bytes();
    let mut out = Scan::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Whether a token has been emitted on the current line (decides if a
    // lint:allow comment is trailing or standalone).
    let mut code_on_line = false;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                code_on_line = false;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                let text = &source[start..i];
                parse_line_comment(text, line, code_on_line, &mut out);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment, nested like Rust's.
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        code_on_line = false;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                i = skip_string(bytes, i, &mut line);
                code_on_line = true;
            }
            b'\'' => {
                // Lifetime or char literal. `'a` followed by anything but a
                // closing quote is a lifetime; everything else is a char.
                let next = bytes.get(i + 1).copied();
                let after = bytes.get(i + 2).copied();
                let is_lifetime = matches!(next, Some(n) if n == b'_' || n.is_ascii_alphabetic())
                    && after != Some(b'\'');
                if is_lifetime {
                    let start = i + 1;
                    i += 1;
                    while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric())
                    {
                        i += 1;
                    }
                    push(
                        &mut out,
                        TokKind::Lifetime,
                        &source[start..i],
                        line,
                        &mut code_on_line,
                    );
                } else {
                    i = skip_char_literal(bytes, i, &mut line);
                    code_on_line = true;
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                let ident = &source[start..i];
                // String-literal prefixes: `r"…"`, `r#"…"#`, `b"…"`,
                // `br#"…"#`, `c"…"`. A bare `r#ident` is a raw identifier.
                match ident {
                    "r" | "b" | "br" | "c" | "cr" => {
                        if bytes.get(i) == Some(&b'"') {
                            i = skip_string(bytes, i, &mut line);
                            code_on_line = true;
                            continue;
                        }
                        if bytes.get(i) == Some(&b'#') {
                            let mut j = i;
                            while bytes.get(j) == Some(&b'#') {
                                j += 1;
                            }
                            if bytes.get(j) == Some(&b'"') {
                                i = skip_raw_string(bytes, i, &mut line);
                                code_on_line = true;
                                continue;
                            }
                            if ident == "r" || ident == "br" {
                                // Raw identifier `r#foo`: emit `foo`.
                                let start = j;
                                i = j;
                                while i < bytes.len()
                                    && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric())
                                {
                                    i += 1;
                                }
                                push(
                                    &mut out,
                                    TokKind::Ident,
                                    &source[start..i],
                                    line,
                                    &mut code_on_line,
                                );
                                continue;
                            }
                        }
                        if ident == "b" && bytes.get(i) == Some(&b'\'') {
                            i = skip_char_literal(bytes, i, &mut line);
                            code_on_line = true;
                            continue;
                        }
                        push(&mut out, TokKind::Ident, ident, line, &mut code_on_line);
                    }
                    _ => push(&mut out, TokKind::Ident, ident, line, &mut code_on_line),
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    let b = bytes[i];
                    if b == b'_' || b.is_ascii_alphanumeric() {
                        i += 1;
                    } else if b == b'.'
                        && bytes.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                        && !source[start..i].contains('.')
                    {
                        // One decimal point, only when a digit follows — so
                        // `0..n` stays a range, not part of the number.
                        i += 1;
                    } else {
                        break;
                    }
                }
                push(
                    &mut out,
                    TokKind::Number,
                    &source[start..i],
                    line,
                    &mut code_on_line,
                );
            }
            _ => {
                // One punctuation character (multi-byte UTF-8 can only
                // appear inside literals/comments in valid Rust, but skip
                // the full code point defensively).
                let ch = source[i..].chars().next().unwrap_or('\u{fffd}');
                push_char(&mut out, ch, line, &mut code_on_line);
                i += ch.len_utf8();
            }
        }
    }
    mark_cfg_test_items(&mut out.tokens);
    out
}

fn push(out: &mut Scan, kind: TokKind, text: &str, line: u32, code_on_line: &mut bool) {
    out.tokens.push(Token {
        kind,
        text: text.to_string(),
        line,
        in_test: false,
    });
    out.code_lines.insert(line);
    *code_on_line = true;
}

fn push_char(out: &mut Scan, ch: char, line: u32, code_on_line: &mut bool) {
    out.tokens.push(Token {
        kind: TokKind::Punct(ch),
        text: ch.to_string(),
        line,
        in_test: false,
    });
    out.code_lines.insert(line);
    *code_on_line = true;
}

/// Consumes a `"…"` literal starting at the `"` (or at a `b`/`r` prefix
/// already consumed by the caller when `bytes[i] == b'"'`). Handles `\`
/// escapes; returns the index after the closing quote.
fn skip_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    debug_assert_eq!(bytes[i], b'"');
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes a raw string starting at the first `#` (prefix ident already
/// consumed): `#…#"…"#…#`. No escapes; closes on `"` followed by the same
/// number of hashes.
fn skip_raw_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(bytes.get(i), Some(&b'"'));
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

/// Consumes a `'…'` char literal starting at the `'`.
fn skip_char_literal(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    debug_assert_eq!(bytes[i], b'\'');
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => {
                // Malformed literal; stop at the line break rather than
                // swallowing the rest of the file.
                *line += 1;
                return i + 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Parses one line comment: `lint:allow(...)` escape hatches and `SAFETY:`
/// markers. Everything else is dropped.
fn parse_line_comment(text: &str, line: u32, code_on_line: bool, out: &mut Scan) {
    let body = text.trim_start_matches('/').trim();
    if body.contains("SAFETY:") {
        out.safety_lines.insert(line);
    }
    let Some(rest) = body.strip_prefix("lint:allow(") else {
        return;
    };
    let Some(close) = rest.find(')') else {
        return;
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let reason = rest[close + 1..].trim().to_string();
    out.allows.push(AllowSite {
        line,
        rules,
        reason,
        trailing: code_on_line,
    });
}

/// Marks every token belonging to a `#[cfg(test)]` item. Token-level
/// approximation of item scope: after a `#[cfg(test)]` (or `#[test]`)
/// attribute, skip any further attributes, then mark up to the end of the
/// next brace-balanced block — or up to a top-level `;` for a block-less
/// item such as an annotated `use`.
fn mark_cfg_test_items(tokens: &mut [Token]) {
    let mut i = 0usize;
    while i < tokens.len() {
        let Some(attr_end) = match_test_attribute(tokens, i) else {
            i += 1;
            continue;
        };
        // Skip stacked attributes between the cfg(test) and the item.
        let mut j = attr_end;
        while j < tokens.len() && tokens[j].kind == TokKind::Punct('#') {
            j = skip_attribute(tokens, j);
        }
        // Find the item's extent: matching `{…}` or terminating `;`.
        let mut depth = 0usize;
        let mut k = j;
        while k < tokens.len() {
            match tokens[k].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                TokKind::Punct(';') if depth == 0 => {
                    k += 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        for t in &mut tokens[i..k] {
            t.in_test = true;
        }
        i = k;
    }
}

/// If `tokens[i..]` starts a `#[cfg(test)]`/`#[cfg(any(test, …))]`/`#[test]`
/// attribute, returns the index one past its closing `]`.
fn match_test_attribute(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i)?.kind != TokKind::Punct('#') {
        return None;
    }
    if tokens.get(i + 1)?.kind != TokKind::Punct('[') {
        return None;
    }
    let end = skip_attribute(tokens, i);
    let inner = &tokens[i + 2..end.saturating_sub(1)];
    let is_test = match inner.first().map(|t| t.text.as_str()) {
        Some("test") if inner.len() == 1 => true,
        // `cfg(test)` / `cfg(any(test, …))`, but never `cfg(not(test))`.
        Some("cfg") => {
            inner.iter().any(|t| t.text == "test") && !inner.iter().any(|t| t.text == "not")
        }
        _ => false,
    };
    is_test.then_some(end)
}

/// Returns the index one past the `]` closing the attribute starting at
/// `tokens[i]` (which must be `#`).
fn skip_attribute(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}
