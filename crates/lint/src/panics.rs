//! Panic-path analysis: extends the unwrap budget to explicit panic
//! macros and (for designated hot-path crates) slice indexing.
//!
//! Like the unwrap budget, these are *ratchets*, not bans: the counts in
//! `p3-lint.toml` may only go down. `panic!`/`unreachable!` guarding a
//! truly unreachable engine invariant is acceptable — an ever-growing pile
//! of them is how user-reachable crashes creep in. Slice indexing is the
//! silent member of the family (`x[i]` panics like an unwrap but greps
//! like nothing), so the crates on the event hot path carry an explicit
//! index budget too.

use crate::lexer::{delimited, Stripped};

/// Panic macros the budget counts (in non-test code).
pub const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Counts `panic!`/`unreachable!`/`todo!`/`unimplemented!` invocations in
/// a stripped file.
pub fn count_panics(stripped: &Stripped) -> usize {
    let code = &stripped.code;
    let b = code.as_bytes();
    let mut n = 0;
    for mac in PANIC_MACROS {
        for (pos, _) in code.match_indices(mac) {
            if !delimited(code, pos, mac) {
                continue;
            }
            // The `!` must follow (whitespace-tolerant).
            let mut j = pos + mac.len();
            while j < b.len() && b[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < b.len() && b[j] == b'!' {
                n += 1;
            }
        }
    }
    n
}

/// Counts index expressions (`x[i]`, `x[a..b]`, `f()[0]`) in a stripped
/// file: a `[` whose previous non-space character ends an expression
/// (identifier, `)` or `]`). Attributes (`#[…]`), slice types (`&[T]`,
/// `&'a [T]`, `&mut [T]`), array literals (`for x in [a, b]`) and
/// patterns do not count.
pub fn count_index_sites(stripped: &Stripped) -> usize {
    let b = stripped.code.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut n = 0;
    for (i, &c) in b.iter().enumerate() {
        if c != b'[' {
            continue;
        }
        let Some(j) = b[..i].iter().rposition(|c| !c.is_ascii_whitespace()) else {
            continue;
        };
        if b[j] == b')' || b[j] == b']' {
            n += 1;
        } else if ident(b[j]) {
            let start = b[..j].iter().rposition(|&c| !ident(c)).map_or(0, |k| k + 1);
            let lifetime = start > 0 && b[start - 1] == b'\'';
            let keyword = matches!(&b[start..=j], b"mut" | b"in");
            n += usize::from(!lifetime && !keyword);
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;

    #[test]
    fn counts_panic_macros_outside_tests() {
        let src = r#"
fn f(x: u32) {
    if x > 3 { panic!("boom") }
    match x { 0 => unreachable!(), _ => todo!() }
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { panic!("test-only is free"); }
}
"#;
        assert_eq!(count_panics(&strip(src)), 3);
    }

    #[test]
    fn panic_in_comment_or_string_is_free() {
        let src = "// panic! lives here\nfn f() { let s = \"panic!\"; let _ = s; }\n";
        assert_eq!(count_panics(&strip(src)), 0);
    }

    #[test]
    fn counts_index_expressions_not_types_or_attrs() {
        let src = r#"
#[derive(Debug)]
struct S { a: [u8; 4] }
fn f(v: &[u64], s: &S, i: usize) -> u64 {
    let head = v[0];
    let tail = &v[1..];
    head + tail[i] + u64::from(s.a[2])
}
"#;
        assert_eq!(count_index_sites(&strip(src)), 4);
    }

    #[test]
    fn lifetimes_and_keywords_before_a_bracket_are_not_indexing() {
        let src = r#"
struct R<'a> { data: &'a [u8] }
fn f(v: &mut [u64], w: &'static [u8], win: [u8; 2]) -> u64 {
    for x in [1, 2] { v[0] += x; }
    let min = v[1];
    min + u64::from(w[0]) + u64::from(win[1])
}
"#;
        assert_eq!(count_index_sites(&strip(src)), 4);
    }
}
