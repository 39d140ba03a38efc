//! Byte scans for the JSON tokenizer: a word-at-a-time marker for the
//! bytes a plain string run stops at, and [`scan_value`], the flat loop
//! that steps over a well-formed value.

/// The index past the whitespace at `i`.
pub(super) fn ws_at(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

/// The index of the first byte at or after `i` that `stops` marks, or
/// the input's length, found eight bytes a word. The last word is
/// padded with zero bytes, which `stops` must mark. (Digit runs in
/// these documents are short enough that a byte loop beats it.)
#[inline]
pub(super) fn words_at(b: &[u8], mut i: usize, stops: impl Fn(u64) -> u64) -> usize {
    loop {
        let mut w = [0; 8];
        match b.get(i..i + 8) {
            Some(word) => w.copy_from_slice(word),
            None => {
                let rest = b.get(i..).unwrap_or_default();
                w[..rest.len()].copy_from_slice(rest);
            }
        }
        let marked = stops(u64::from_le_bytes(w));
        if marked != 0 {
            return i + marked.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
}

/// Where the number at `i` ends in the grammar `f64` parsing accepts
/// from these bytes, and whether it holds to it: an optional `-`,
/// digits with at most one `.` and at least one digit, then optionally
/// `e` or `E`, a sign and at least one digit.
pub(super) fn number_end(b: &[u8], mut i: usize) -> (usize, bool) {
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    let digits_at = |start| {
        let mut end = start;
        while b.get(end).is_some_and(u8::is_ascii_digit) {
            end += 1;
        }
        (end, end - start)
    };
    let (mut i, mut digits) = digits_at(i);
    if b.get(i) == Some(&b'.') {
        let (end, more) = digits_at(i + 1);
        i = end;
        digits += more;
    }
    let mut ok = digits > 0;
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let (end, exponent) = digits_at(i);
        i = end;
        ok &= exponent > 0;
    }
    (i, ok)
}

/// The end of the string opening at `i`, if its escapes are the simple
/// ones or `\u` with four hex digits.
fn scan_string(b: &[u8], mut i: usize) -> Option<usize> {
    i += 1;
    loop {
        i = words_at(b, i, string_stops);
        match *b.get(i)? {
            b'"' => return Some(i + 1),
            b'\\' => match *b.get(i + 1)? {
                b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => i += 2,
                b'u' if b.get(i + 2..i + 6)?.iter().all(u8::is_ascii_hexdigit) => i += 6,
                _ => return None,
            },
            c if c < 0x20 => return None,
            _ => i += 1,
        }
    }
}

/// The start of a member's value, after its key at `i`, the `:` and the
/// whitespace either side of it.
fn scan_key(b: &[u8], i: usize) -> Option<usize> {
    if b.get(i) != Some(&b'"') {
        return None;
    }
    let i = ws_at(b, scan_string(b, i)?);
    (b.get(i) == Some(&b':')).then(|| ws_at(b, i + 1))
}

/// The end of the well-formed value at `i`, read in one loop with its
/// open containers on a small stack: containers nested at most 64
/// deep, strings as [`scan_string`] reads them, numbers as
/// [`number_end`] does, and the three literals. It accepts nothing the
/// recursive skip rejects and ends where it ends; `None` leaves the
/// value to that skip.
pub(super) fn scan_value(b: &[u8], mut i: usize) -> Option<usize> {
    let mut open = [0u8; 64];
    let mut depth = 0;
    loop {
        // A value starts at `i`.
        match *b.get(i)? {
            c @ (b'{' | b'[') => {
                let close = if c == b'{' { b'}' } else { b']' };
                i = ws_at(b, i + 1);
                if b.get(i) == Some(&close) {
                    i += 1;
                } else {
                    *open.get_mut(depth)? = close;
                    depth += 1;
                    if close == b'}' {
                        i = scan_key(b, i)?;
                    }
                    continue;
                }
            }
            b'"' => i = scan_string(b, i)?,
            b'-' | b'0'..=b'9' => match number_end(b, i) {
                (end, true) => i = end,
                _ => return None,
            },
            b't' if b[i..].starts_with(b"true") => i += 4,
            b'f' if b[i..].starts_with(b"false") => i += 5,
            b'n' if b[i..].starts_with(b"null") => i += 4,
            _ => return None,
        }
        // A value ends at `i`: close containers until one goes on.
        loop {
            let Some(close) = depth.checked_sub(1).map(|top| open[top]) else {
                return Some(i);
            };
            i = ws_at(b, i);
            match *b.get(i)? {
                b',' => {
                    i = ws_at(b, i + 1);
                    if close == b'}' {
                        i = scan_key(b, i)?;
                    }
                    break;
                }
                c if c == close => {
                    i += 1;
                    depth -= 1;
                }
                _ => return None,
            }
        }
    }
}

/// `0x01` in every byte of a word.
const ONES: u64 = 0x0101_0101_0101_0101;
/// The high bit of every byte of a word.
const HIGHS: u64 = 0x8080_8080_8080_8080;

// Each marker below sets the high bit of the bytes of a little-endian
// word that match. A borrow out of a matching byte can also mark bytes
// above it, so only the lowest marked byte is exact: the first match in
// the input. Each marker leaves every byte below its first match
// unmarked, so an OR of markers marks the first byte any of them
// matches.

/// Marks the bytes below `n` (`n` at most `0x80`).
fn below(w: u64, n: u8) -> u64 {
    w.wrapping_sub(ONES * u64::from(n)) & !w & HIGHS
}

/// Marks the bytes equal to `b`.
fn equal(w: u64, b: u8) -> u64 {
    below(w ^ (ONES * u64::from(b)), 1)
}

/// Marks the bytes that end a plain string run: `"`, `\` and control
/// bytes.
pub(super) fn string_stops(w: u64) -> u64 {
    equal(w, b'"') | equal(w, b'\\') | below(w, 0x20)
}

#[cfg(test)]
mod tests {
    use super::super::Parser;
    use super::*;

    /// The first byte of `w` (little-endian) that `stop` accepts.
    fn first(w: u64, stop: impl Fn(u8) -> bool) -> Option<usize> {
        w.to_le_bytes().iter().position(|&b| stop(b))
    }

    fn lowest_marked(marks: u64) -> Option<usize> {
        (marks != 0).then(|| marks.trailing_zeros() as usize / 8)
    }

    fn pick<'a>(rng: &mut proptest::TestRng, from: &[&'a str]) -> &'a str {
        from[rng.below(from.len() as u64) as usize]
    }

    /// Appends a random value at most `depth` containers deep, built from
    /// well-formed and broken pieces, with whitespace between tokens.
    fn random_value(rng: &mut proptest::TestRng, depth: u64, out: &mut String) {
        const SCALARS: [&str; 18] = [
            "0",
            "-12.5e+3",
            "7E-2",
            "1.",
            "-",
            "01",
            ".5",
            "1e",
            "-.5",
            "true",
            "fals",
            "null",
            "\"a b\"",
            "\"k\\u00e9\\n\\/\"",
            "\"\\u12g4\"",
            "\"\\x\"",
            "\"é€\"",
            "\"\u{1}\"",
        ];
        const WS: [&str; 4] = ["", " ", "\n\t ", ""];
        const KEYS: [&str; 5] = ["\"k\"", "\"\\\"q\"", "k", "\"\"", "\"name\""];
        let kind = rng.below(if depth == 0 { 1 } else { 3 });
        if kind == 0 {
            out.push_str(pick(rng, &SCALARS));
            return;
        }
        let (open, close) = if kind == 1 { ('[', ']') } else { ('{', '}') };
        out.push(open);
        for n in 0..rng.below(4) {
            if n > 0 {
                out.push(',');
            }
            out.push_str(pick(rng, &WS));
            if kind == 2 {
                out.push_str(pick(rng, &KEYS));
                out.push_str(pick(rng, &WS));
                out.push(':');
                out.push_str(pick(rng, &WS));
            }
            random_value(rng, depth - 1, out);
            out.push_str(pick(rng, &WS));
        }
        out.push(close);
    }

    proptest::proptest! {
        /// A word marker's lowest mark is the first byte the byte loop
        /// stops at, for words that mix plain, stop and high bytes.
        #[test]
        fn word_markers_stop_where_the_byte_loops_do(seed in proptest::any::<u64>()) {
            let mut rng = proptest::TestRng::for_case("marker words", seed);
            let palette = b"aZ09~ \"\\\x00\x01\x1f\x20/.:e\x7f\x80\xc3\xa9\xff";
            for _ in 0..256 {
                let mut w = [0u8; 8];
                for b in &mut w {
                    *b = if rng.below(4) == 0 {
                        rng.below(256) as u8
                    } else {
                        palette[rng.below(palette.len() as u64) as usize]
                    };
                }
                let w = u64::from_le_bytes(w);
                let string_stop = |c: u8| c == b'"' || c == b'\\' || c < 0x20;
                proptest::prop_assert_eq!(lowest_marked(string_stops(w)), first(w, string_stop));
            }
        }

        /// The skip that tries the flat loop first gives what the
        /// recursive skip and a full read give: the same verdict, end
        /// offset and error, on nested values that are well formed or
        /// have one character dropped or inserted.
        #[test]
        fn flat_scan_skips_as_the_recursive_skip_and_the_reader_do(
            seed in proptest::any::<u64>(),
        ) {
            let mut rng = proptest::TestRng::for_case("nested values", seed);
            for _ in 0..32 {
                let mut text = String::new();
                random_value(&mut rng, 4, &mut text);
                let mut chars: Vec<char> = text.chars().collect();
                let at = rng.below(chars.len() as u64 + 1) as usize;
                match rng.below(4) {
                    0 if at < chars.len() => {
                        chars.remove(at);
                    }
                    1 => chars.insert(at, pick(&mut rng, &[",", ":", "]", "}", "\"", "\\", "x", " "]).chars().next().unwrap_or(' ')),
                    _ => {}
                }
                let mut text: String = chars.into_iter().collect();
                text.push_str(pick(&mut rng, &["", ",", "]"]));
                let (mut fast, mut slow, mut read) =
                    (Parser::new(&text), Parser::new(&text), Parser::new(&text));
                let fast_result = fast.skip_value();
                proptest::prop_assert_eq!(&fast_result, &slow.skip_value_slowly(), "{:?}", text);
                proptest::prop_assert_eq!(fast.pos, slow.pos, "{:?}", text);
                proptest::prop_assert_eq!(fast_result, read.value().map(drop), "{:?}", text);
                proptest::prop_assert_eq!(fast.pos, read.pos, "{:?}", text);
            }
        }
    }
}
