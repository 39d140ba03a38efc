//! The one walk behind every versioned JSON report.
//!
//! A report names each member once, in document order, in a `walk`
//! function that hands every field to a [`Doc`] by `&mut`. `to_json`
//! runs the walk over a `Doc` that prints; `from_json` runs the same walk
//! over a `Doc` that overwrites each field from a parsed document. So a
//! member the writer emits and the reader rejects cannot exist, and every
//! malformed input maps to a structured [`ReportError`], never a panic.
//!
//! Layout: the root object puts one member per line, indented two spaces.
//! A list puts one element per line, each element an object on one line,
//! and an empty list prints as `[]`.

use p3_trace::json::{escape, format_number, parse, JsonValue};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Why a serialized report could not be understood.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// The document is not JSON at all.
    Json(String),
    /// The document is JSON but not this schema (wrong `"format"`
    /// discriminator, missing member, ill-typed value…). The string names
    /// the offending member.
    Schema(String),
    /// The document is a future (or alien) version of this schema.
    Version {
        /// Version stamp found in the document.
        found: u64,
        /// Version this build understands.
        expected: u64,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Json(e) => write!(f, "not valid JSON: {e}"),
            ReportError::Schema(what) => write!(f, "schema mismatch: {what}"),
            ReportError::Version { found, expected } => {
                write!(
                    f,
                    "unsupported report version {found} (expected {expected})"
                )
            }
        }
    }
}

impl std::error::Error for ReportError {}

type Res = Result<(), ReportError>;

/// One direction of a report walk, positioned inside one JSON object.
///
/// Each member method takes the member's key and its field. Printing
/// never fails; reading fails with [`ReportError::Schema`] naming the
/// member when it is missing or ill-typed, or with the error a nested
/// walk returns.
#[derive(Debug)]
pub struct Doc<'a> {
    dir: Dir<'a>,
    /// Whether this object prints one member per line (the root does).
    pretty: bool,
}

#[derive(Debug)]
enum Dir<'a> {
    Write { out: &'a mut String, members: usize },
    Read(&'a BTreeMap<String, JsonValue>),
}

/// Where one member's value goes to or comes from.
enum Slot<'s, 'a> {
    Out(&'s mut String),
    In(&'a JsonValue),
}

fn bad(key: &str, what: &str) -> ReportError {
    ReportError::Schema(format!("member `{key}` is not {what}"))
}

/// Prints one object whose members `body` names.
fn print_object(out: &mut String, pretty: bool, body: impl FnOnce(&mut Doc<'_>) -> Res) -> Res {
    out.push('{');
    let mut d = Doc {
        dir: Dir::Write {
            out: &mut *out,
            members: 0,
        },
        pretty,
    };
    body(&mut d)?;
    let wrote = matches!(d.dir, Dir::Write { members, .. } if members > 0);
    if pretty && wrote {
        out.push('\n');
    }
    out.push('}');
    Ok(())
}

impl<'a> Doc<'a> {
    /// Prints `report` through `walk` as a pretty root object plus a
    /// trailing newline. The walk runs on a copy, since it takes fields
    /// by `&mut`.
    pub fn write<T: Clone>(report: &T, walk: impl FnOnce(&mut Doc<'_>, &mut T) -> Res) -> String {
        let mut copy = report.clone();
        let mut out = String::new();
        // Printing has no failure path; only reading returns errors.
        let _ = print_object(&mut out, true, |d| walk(d, &mut copy));
        out.push('\n');
        out
    }

    /// Parses `text` and fills a default `T` through `walk`.
    ///
    /// # Errors
    ///
    /// [`ReportError::Json`] when `text` is not JSON, otherwise whatever
    /// the walk's first failing member returns.
    pub fn read<T: Default>(
        text: &str,
        walk: impl FnOnce(&mut Doc<'_>, &mut T) -> Res,
    ) -> Result<T, ReportError> {
        let root = parse(text).map_err(|e| ReportError::Json(e.to_string()))?;
        let map = root
            .as_object()
            .ok_or_else(|| ReportError::Schema("document root is not an object".into()))?;
        let mut value = T::default();
        walk(&mut Doc::reading(map), &mut value)?;
        Ok(value)
    }

    fn reading(map: &'a BTreeMap<String, JsonValue>) -> Doc<'a> {
        Doc {
            dir: Dir::Read(map),
            pretty: false,
        }
    }

    /// Opens member `key`: prints its name, or finds its value.
    fn member(&mut self, key: &str) -> Result<Slot<'_, 'a>, ReportError> {
        match &mut self.dir {
            Dir::Write { out, members } => {
                if *members > 0 {
                    out.push(',');
                }
                if self.pretty {
                    out.push_str("\n  ");
                } else if *members > 0 {
                    out.push(' ');
                }
                *members += 1;
                let _ = write!(out, "\"{}\": ", escape(key));
                Ok(Slot::Out(out))
            }
            &mut Dir::Read(map) => map
                .get(key)
                .map(Slot::In)
                .ok_or_else(|| ReportError::Schema(format!("missing member `{key}`"))),
        }
    }

    /// The `"format"` discriminator and `"version"` stamp a report opens
    /// with. A reader rejects another format as a schema error and
    /// another version as [`ReportError::Version`].
    pub fn header(&mut self, format: &str, expected: u64, version: &mut u64) -> Res {
        let mut found = format.to_string();
        self.str("format", &mut found)?;
        if found != format {
            return Err(ReportError::Schema(format!(
                "member `format` is `{found}`, expected `{format}`"
            )));
        }
        self.u64("version", version)?;
        if matches!(self.dir, Dir::Read(_)) && *version != expected {
            return Err(ReportError::Version {
                found: *version,
                expected,
            });
        }
        Ok(())
    }

    /// A non-negative integer.
    pub fn u64(&mut self, key: &str, v: &mut u64) -> Res {
        match self.member(key)? {
            Slot::Out(out) => {
                let _ = write!(out, "{v}");
            }
            Slot::In(j) => {
                let n = j.as_number().ok_or_else(|| bad(key, "a number"))?;
                if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
                    return Err(bad(key, &format!("a non-negative integer: {n}")));
                }
                *v = n as u64;
            }
        }
        Ok(())
    }

    /// A number, printed by `format_number`.
    pub fn f64(&mut self, key: &str, v: &mut f64) -> Res {
        match self.member(key)? {
            Slot::Out(out) => out.push_str(&format_number(*v)),
            Slot::In(j) => *v = j.as_number().ok_or_else(|| bad(key, "a number"))?,
        }
        Ok(())
    }

    /// A string.
    pub fn str(&mut self, key: &str, v: &mut String) -> Res {
        match self.member(key)? {
            Slot::Out(out) => {
                let _ = write!(out, "\"{}\"", escape(v));
            }
            Slot::In(j) => *v = j.as_str().ok_or_else(|| bad(key, "a string"))?.to_string(),
        }
        Ok(())
    }

    /// A 64-bit hash as a `"0x…"` string of 16 hex digits.
    pub fn hex(&mut self, key: &str, v: &mut u64) -> Res {
        match self.member(key)? {
            Slot::Out(out) => {
                let _ = write!(out, "\"{v:#018x}\"");
            }
            Slot::In(j) => {
                let text = j.as_str().ok_or_else(|| bad(key, "a string"))?;
                *v = text
                    .strip_prefix("0x")
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(|| {
                        bad(key, &format!("a 0x-prefixed 64-bit hex value: `{text}`"))
                    })?;
            }
        }
        Ok(())
    }

    /// A list of objects, each of whose members `walk` names.
    pub fn list<T: Default>(
        &mut self,
        key: &str,
        v: &mut Vec<T>,
        mut walk: impl FnMut(&mut Doc<'_>, &mut T) -> Res,
    ) -> Res {
        let pretty = self.pretty;
        match self.member(key)? {
            Slot::Out(out) => {
                out.push('[');
                for (i, item) in v.iter_mut().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push_str("\n    ");
                    } else if i > 0 {
                        out.push(' ');
                    }
                    print_object(out, false, |d| walk(d, item))?;
                }
                if pretty && !v.is_empty() {
                    out.push_str("\n  ");
                }
                out.push(']');
            }
            Slot::In(j) => {
                let items = j.as_array().ok_or_else(|| bad(key, "an array"))?;
                v.clear();
                for item in items {
                    let map = item.as_object().ok_or_else(|| bad(key, "an object"))?;
                    let mut t = T::default();
                    walk(&mut Doc::reading(map), &mut t)?;
                    v.push(t);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Default, PartialEq)]
    struct Inner {
        n: u64,
        x: f64,
    }

    #[derive(Debug, Clone, Default, PartialEq)]
    struct Outer {
        version: u64,
        name: String,
        hash: u64,
        items: Vec<Inner>,
    }

    fn inner(d: &mut Doc<'_>, i: &mut Inner) -> Res {
        d.u64("n", &mut i.n)?;
        d.f64("x", &mut i.x)
    }

    fn outer(d: &mut Doc<'_>, o: &mut Outer) -> Res {
        d.header("t", 3, &mut o.version)?;
        d.str("name", &mut o.name)?;
        d.hex("hash", &mut o.hash)?;
        d.list("items", &mut o.items, inner)
    }

    #[test]
    fn root_is_pretty_and_list_items_are_inline() {
        let o = Outer {
            version: 3,
            name: "a\"b".into(),
            hash: 0xbeef,
            items: vec![Inner { n: 2, x: 0.5 }, Inner { n: 4, x: 1.0 }],
        };
        let text = Doc::write(&o, outer);
        assert_eq!(
            text,
            "{\n  \"format\": \"t\",\n  \"version\": 3,\n  \"name\": \"a\\\"b\",\n  \
             \"hash\": \"0x000000000000beef\",\n  \"items\": [\n    \
             {\"n\": 2, \"x\": 0.5},\n    {\"n\": 4, \"x\": 1}\n  ]\n}\n"
        );
        assert_eq!(Doc::read(&text, outer), Ok(o));
    }

    #[test]
    fn read_errors_name_the_member() {
        let doc = r#"{"format": "t", "version": 3, "name": "x", "hash": "0x1",
                      "items": [{"n": -1, "x": 0}]}"#;
        let err = Doc::read(doc, outer).unwrap_err();
        assert!(
            matches!(err, ReportError::Schema(ref s) if s.contains("`n`")),
            "{err}"
        );
        let doc = r#"{"format": "t", "version": 3, "name": "x", "hash": "0x1", "items": [7]}"#;
        let err = Doc::read(doc, outer).unwrap_err();
        assert!(
            matches!(err, ReportError::Schema(ref s) if s.contains("items")),
            "{err}"
        );
        assert!(matches!(
            Doc::read("[1]", outer),
            Err(ReportError::Schema(ref s)) if s.contains("root")
        ));
    }
}
