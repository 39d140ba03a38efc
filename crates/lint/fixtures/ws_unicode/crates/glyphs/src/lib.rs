//! Char literals beyond ASCII. Each must lex as one literal, not as a
//! lifetime followed by the bytes of a multi-byte char.

pub fn accent() -> char {
    'é'
}

pub fn escaped() -> char {
    '\u{e9}'
}

pub fn wide() -> char {
    '日'
}

pub fn label(c: char) -> &'static str {
    if c == '日' {
        "日本"
    } else {
        "other"
    }
}

pub fn same() -> bool {
    accent() == escaped() && wide() != '"' && label(wide()) != label('é')
}
