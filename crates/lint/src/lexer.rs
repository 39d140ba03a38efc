//! Source preparation shared by every pass: comment/string/test stripping
//! (offset- and line-preserving), allow-marker collection, a minimal token
//! stream for the item/call-graph extractor, and string-literal extraction
//! for the schema-drift pass.
//!
//! [`strip`] produces two parallel views of a file, byte-for-byte aligned
//! with the original source:
//!
//! * `code` — comments, string/char literals and `#[cfg(test)]`/`#[test]`
//!   items blanked. The view the pattern rules and the call-graph walk.
//! * `text` — comments and test items blanked, **string literals kept**.
//!   The view the schema-drift pass reads the trace version stamp from.
//!
//! Allow markers are collected from *comment text only*: a comment whose
//! content starts with `p3-lint:` (after doc-comment `/`/`!`/`*` dressing)
//! is a marker; the same words inside a string literal or mid-sentence in
//! prose are not. This is what scopes a marker to its own and the next
//! line — an `allow(...)` spelled in a doc example or a test string can no
//! longer silence a real finding nearby.

use std::collections::BTreeMap;

/// Source text with comments, strings and test items blanked out
/// (structure and line numbers preserved), plus the allow markers found in
/// the comments.
#[derive(Debug)]
pub struct Stripped {
    /// The blanked source: comments, string/char literals and test items
    /// replaced by spaces (newlines kept).
    pub code: String,
    /// Like `code`, but string and char literals are kept verbatim.
    pub text: String,
    /// line (1-based) → allowed rule name, from `p3-lint: allow(rule): reason`.
    pub allows: BTreeMap<usize, String>,
    /// Markers missing the required justification text.
    pub bad_markers: Vec<usize>,
}

impl Stripped {
    /// True when `line` is covered by an `allow(rule)` marker. A marker
    /// covers its own line and the following line — nothing else.
    pub fn allowed(&self, line: usize, rule: &str) -> bool {
        [line, line.saturating_sub(1)]
            .iter()
            .any(|l| self.allows.get(l).is_some_and(|r| r == rule))
    }
}

/// Strips comments, string/char literals and `#[cfg(test)]`/`#[test]`
/// items from Rust source, preserving line structure so findings carry
/// real line numbers. Allow markers are collected from comment text as it
/// is blanked — only a comment whose content *starts* with `p3-lint:`
/// counts, so the marker syntax quoted in prose or a string literal is
/// inert.
pub fn strip(source: &str) -> Stripped {
    let mut allows = BTreeMap::new();
    let mut bad_markers = Vec::new();
    let mut comments: Vec<(usize, String)> = Vec::new();

    let b = source.as_bytes();
    let mut code = Vec::with_capacity(b.len());
    let mut text = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                let mut body = Vec::new();
                while i < b.len() && b[i] != b'\n' {
                    body.push(b[i]);
                    code.push(b' ');
                    text.push(b' ');
                    i += 1;
                }
                comments.push((start, String::from_utf8_lossy(&body).into_owned()));
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                let mut body = Vec::new();
                let mut depth = 1;
                body.extend_from_slice(b"/*");
                code.extend_from_slice(b"  ");
                text.extend_from_slice(b"  ");
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        body.extend_from_slice(b"/*");
                        code.extend_from_slice(b"  ");
                        text.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        body.extend_from_slice(b"*/");
                        code.extend_from_slice(b"  ");
                        text.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        body.push(b[i]);
                        let blank = if b[i] == b'\n' { b'\n' } else { b' ' };
                        code.push(blank);
                        text.push(blank);
                        i += 1;
                    }
                }
                comments.push((start, String::from_utf8_lossy(&body).into_owned()));
            }
            b'"' => {
                code.push(b' ');
                text.push(b'"');
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        code.extend_from_slice(b"  ");
                        text.push(b[i]);
                        text.push(b[i + 1]);
                        i += 2;
                    } else if b[i] == b'"' {
                        code.push(b' ');
                        text.push(b'"');
                        i += 1;
                        break;
                    } else {
                        code.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        text.push(b[i]);
                        i += 1;
                    }
                }
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Raw string: r"..." or r#"..."# with any number of #s.
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    code.extend(std::iter::repeat_n(b' ', j - i + 1));
                    text.extend_from_slice(&b[i..=j]);
                    i = j + 1;
                    'raw: while i < b.len() {
                        if b[i] == b'"' {
                            let mut k = i + 1;
                            let mut h = 0;
                            while k < b.len() && b[k] == b'#' && h < hashes {
                                h += 1;
                                k += 1;
                            }
                            if h == hashes {
                                code.extend(std::iter::repeat_n(b' ', k - i));
                                text.extend_from_slice(&b[i..k]);
                                i = k;
                                break 'raw;
                            }
                        }
                        code.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        text.push(b[i]);
                        i += 1;
                    }
                } else {
                    code.push(b'r');
                    text.push(b'r');
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal or lifetime. 'x' / '\n' / 'é' are literals;
                // 'a followed by an identifier continuation is a lifetime.
                let width = char_width(source, i + 1);
                if i + 2 < b.len() && b[i + 1] == b'\\' {
                    code.extend_from_slice(b"   ");
                    text.extend_from_slice(&b[i..i + 3]);
                    i += 3;
                    while i < b.len() && b[i] != b'\'' {
                        code.push(b' ');
                        text.push(b[i]);
                        i += 1;
                    }
                    if i < b.len() {
                        code.push(b' ');
                        text.push(b'\'');
                        i += 1;
                    }
                } else if b.get(i + 1 + width) == Some(&b'\'') {
                    // Blanked whole, so no slice of `code` can land inside
                    // a multi-byte char.
                    code.extend(std::iter::repeat_n(b' ', width + 2));
                    text.extend_from_slice(&b[i..i + width + 2]);
                    i += width + 2;
                } else {
                    code.push(b'\'');
                    text.push(b'\'');
                    i += 1;
                }
            }
            c => {
                code.push(c);
                text.push(c);
                i += 1;
            }
        }
    }

    for (pos, body) in comments {
        let base_line = line_of_source(source, pos);
        for (k, raw_line) in body.lines().enumerate() {
            let content = raw_line
                .trim_start()
                .trim_start_matches(['/', '!', '*'])
                .trim_start();
            let Some(marker) = content.strip_prefix("p3-lint:") else {
                continue;
            };
            let line = base_line + k;
            let marker = marker.trim();
            if let Some(rest) = marker.strip_prefix("allow(") {
                if let Some(close) = rest.find(')') {
                    let rule = rest[..close].trim().to_string();
                    let reason = rest[close + 1..].trim_start_matches(':').trim();
                    if reason.is_empty() {
                        bad_markers.push(line);
                    } else {
                        allows.insert(line, rule);
                    }
                } else {
                    bad_markers.push(line);
                }
            } else {
                bad_markers.push(line);
            }
        }
    }
    bad_markers.sort_unstable();
    bad_markers.dedup();

    let mut code = String::from_utf8(code).unwrap_or_default();
    let mut text = String::from_utf8(text).unwrap_or_default();
    let test_spans = test_item_spans(&code);
    blank_spans(&mut code, &test_spans);
    blank_spans(&mut text, &test_spans);
    Stripped {
        code,
        text,
        allows,
        bad_markers,
    }
}

/// Byte spans of every item annotated `#[cfg(test)]` or `#[test]`
/// (attribute through the end of its balanced-brace body).
fn test_item_spans(code: &str) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for (pos, _) in code.match_indices("#[cfg(test)]") {
        spans.push(item_span(code, pos));
    }
    for (pos, _) in code.match_indices("#[test]") {
        spans.push(item_span(code, pos));
    }
    spans.sort_unstable();
    spans
}

/// Blanks each span (keeping newlines), in place.
fn blank_spans(s: &mut String, spans: &[(usize, usize)]) {
    let mut bytes: Vec<u8> = s.bytes().collect();
    for &(a, z) in spans {
        let z = z.min(bytes.len());
        for c in bytes[a..z].iter_mut() {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    }
    *s = String::from_utf8(bytes).unwrap_or_default();
}

/// Extent of the item starting at an attribute: from the attribute to the
/// closing brace of the first balanced `{}` block after it (or the next
/// `;` for brace-less items).
fn item_span(code: &str, start: usize) -> (usize, usize) {
    let b = code.as_bytes();
    let mut i = start;
    let mut depth = 0usize;
    let mut seen_brace = false;
    while i < b.len() {
        match b[i] {
            b'{' => {
                depth += 1;
                seen_brace = true;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                if seen_brace && depth == 0 {
                    return (start, i + 1);
                }
            }
            b';' if !seen_brace => return (start, i + 1),
            _ => {}
        }
        i += 1;
    }
    (start, b.len())
}

/// End (exclusive) of the balanced `{}` block opening at `open` (which
/// must point at a `{`). Returns the source end when unbalanced.
pub fn brace_span_end(code: &str, open: usize) -> usize {
    let b = code.as_bytes();
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// Byte length of the char starting at `pos` (1 past the end or off a
/// char boundary).
fn char_width(s: &str, pos: usize) -> usize {
    s.get(pos..)
        .and_then(|rest| rest.chars().next())
        .map_or(1, char::len_utf8)
}

pub(crate) fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// True if `pat` occurs at `pos` in `code` delimited by non-identifier
/// characters (so `HashMap` does not match `MyHashMapLike`).
pub fn delimited(code: &str, pos: usize, pat: &str) -> bool {
    let b = code.as_bytes();
    let before_ok = pos == 0 || !is_ident(b[pos - 1]);
    let end = pos + pat.len();
    let after_ok = end >= b.len() || !is_ident(b[end]);
    before_ok && after_ok
}

/// 1-based line number of byte offset `pos`.
pub fn line_of(code: &str, pos: usize) -> usize {
    code[..pos.min(code.len())]
        .bytes()
        .filter(|&c| c == b'\n')
        .count()
        + 1
}

fn line_of_source(source: &str, pos: usize) -> usize {
    line_of(source, pos)
}

/// One token of the blanked code view: an identifier-like run (identifier,
/// keyword or number) or a single punctuation byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// True for identifier/keyword tokens (first char alphabetic or `_`).
    pub ident: bool,
}

impl Token {
    /// The token's text within `code`.
    pub fn text<'a>(&self, code: &'a str) -> &'a str {
        &code[self.start..self.end]
    }
}

/// Tokenizes a blanked code view into identifier runs and punctuation
/// bytes. Whitespace is skipped; strings and comments are assumed blanked.
pub fn tokenize(code: &str) -> Vec<Token> {
    let b = code.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            i += 1;
        } else if is_ident(c) {
            let start = i;
            while i < b.len() && is_ident(b[i]) {
                i += 1;
            }
            toks.push(Token {
                start,
                end: i,
                ident: c.is_ascii_alphabetic() || c == b'_',
            });
        } else {
            toks.push(Token {
                start: i,
                end: i + 1,
                ident: false,
            });
            i += 1;
        }
    }
    toks
}

/// Extracts every string literal from a `text` view (comments and tests
/// already blanked, strings kept). Returns `(byte offset, content)` pairs
/// where content is the source text between the quotes, escapes
/// *unprocessed* (the schema pass matches on source-escaped bytes).
pub fn string_literals(text: &str) -> Vec<(usize, String)> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let start = i;
                i += 1;
                let content_start = i;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        i += 2;
                    } else if b[i] == b'"' {
                        break;
                    } else {
                        i += 1;
                    }
                }
                out.push((
                    start,
                    String::from_utf8_lossy(&b[content_start..i.min(b.len())]).into_owned(),
                ));
                i += 1;
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    let start = i;
                    let content_start = j + 1;
                    i = j + 1;
                    let mut content_end = b.len();
                    while i < b.len() {
                        if b[i] == b'"' {
                            let mut k = i + 1;
                            let mut h = 0;
                            while k < b.len() && b[k] == b'#' && h < hashes {
                                h += 1;
                                k += 1;
                            }
                            if h == hashes {
                                content_end = i;
                                i = k;
                                break;
                            }
                        }
                        i += 1;
                    }
                    out.push((
                        start,
                        String::from_utf8_lossy(&b[content_start..content_end]).into_owned(),
                    ));
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                // Skip char literals so a '"' char does not open a string.
                let width = char_width(text, i + 1);
                if i + 2 < b.len() && b[i + 1] == b'\\' {
                    i += 3;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else if b.get(i + 1 + width) == Some(&b'\'') {
                    i += width + 2;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_only_from_comment_start() {
        // A real marker is collected …
        let s = strip("// p3-lint: allow(unordered): key order never observed\nlet x = 1;\n");
        assert_eq!(s.allows.get(&1).map(String::as_str), Some("unordered"));
        // … prose *mentioning* the syntax is not …
        let s = strip("//! justify with `// p3-lint: allow(unordered): why`.\n");
        assert!(s.allows.is_empty(), "{:?}", s.allows);
        assert!(s.bad_markers.is_empty(), "{:?}", s.bad_markers);
        // … and neither is the marker text inside a string literal.
        let s = strip("let m = \"p3-lint: allow(unordered): nope\";\n");
        assert!(s.allows.is_empty(), "{:?}", s.allows);
    }

    #[test]
    fn trailing_and_doc_comment_markers_still_work() {
        let s = strip("let t = now(); // p3-lint: allow(wall-clock): test shim\n");
        assert_eq!(s.allows.get(&1).map(String::as_str), Some("wall-clock"));
        let s = strip("/// p3-lint: allow(file-length): split tracked in #12\nfn f() {}\n");
        assert_eq!(s.allows.get(&1).map(String::as_str), Some("file-length"));
    }

    #[test]
    fn block_comment_marker_lines_are_attributed() {
        let s = strip("/* intro\n * p3-lint: allow(unordered): fixed order\n */\nlet x = 1;\n");
        assert_eq!(s.allows.get(&2).map(String::as_str), Some("unordered"));
    }

    #[test]
    fn views_stay_aligned_and_strings_survive_in_text() {
        let src = "fn f() { let s = \"Hash\\\"Map\"; } // note\n";
        let s = strip(src);
        assert_eq!(s.code.len(), src.len());
        assert_eq!(s.text.len(), src.len());
        assert!(!s.code.contains("Hash"));
        assert!(s.text.contains("Hash\\\"Map"));
        assert!(!s.text.contains("note"));
    }

    #[test]
    fn string_literals_extracts_plain_raw_and_skips_char_quote() {
        let text = "let a = \"alpha\"; let q = '\"'; let r = r#\"raw \"stuff\"\"#;";
        let lits: Vec<String> = string_literals(text).into_iter().map(|(_, s)| s).collect();
        assert_eq!(lits, vec!["alpha".to_string(), "raw \"stuff\"".to_string()]);
    }

    #[test]
    fn non_ascii_char_literals_are_blanked_whole() {
        let src = "let a = '\\u{e9}'; let b = 'é'; let q = '日'; let s = \"x\";\n";
        let s = strip(src);
        assert!(s.code.is_ascii(), "{:?}", s.code);
        assert_eq!(s.code.len(), src.len());
        let lits: Vec<String> = string_literals(&s.text)
            .into_iter()
            .map(|(_, l)| l)
            .collect();
        assert_eq!(lits, vec!["x".to_string()]);
    }

    #[test]
    fn tokenize_positions_and_idents() {
        let toks = tokenize("fn f2(x: u32) {}");
        let names: Vec<&str> = toks.iter().map(|t| t.text("fn f2(x: u32) {}")).collect();
        assert_eq!(names, vec!["fn", "f2", "(", "x", ":", "u32", ")", "{", "}"]);
        assert!(toks[0].ident && toks[1].ident && !toks[2].ident);
    }
}
