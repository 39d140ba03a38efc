//! Dependency-free command-line argument parsing.
//!
//! Grammar: `p3 <command> [positional]... [--flag value]... [--switch]...`.
//! Flags are `--name value` pairs; a flag followed by another flag (or
//! nothing) is a boolean switch. Bare tokens after the command are
//! collected as positionals; commands that take none reject them at
//! dispatch with [`ArgError::UnexpectedPositional`]. Every flag read is
//! recorded, so a command that has read all the flags it accepts can
//! refuse the rest with [`Args::reject_unknown`].

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Parsed command line: the command word, positionals, and flag map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    command: String,
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
    /// Flag names the command has looked up so far.
    read: RefCell<BTreeSet<String>>,
}

/// Argument errors, printable as user-facing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No command word given.
    MissingCommand,
    /// A positional token appeared where a flag was expected.
    UnexpectedPositional(String),
    /// A flag the command does not accept.
    UnknownFlag(String),
    /// A required flag is absent.
    MissingFlag(&'static str),
    /// A flag's value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
        /// What was expected.
        expected: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no command given (try `p3 help`)"),
            ArgError::UnexpectedPositional(t) => write!(f, "unexpected argument `{t}`"),
            ArgError::UnknownFlag(n) => write!(f, "unknown flag --{n} (try `p3 help`)"),
            ArgError::MissingFlag(n) => write!(f, "missing required flag --{n}"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "--{flag} {value}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw tokens (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on an empty command line.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut it = tokens.into_iter().peekable();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::UnexpectedPositional(command));
        }
        let mut positionals = Vec::new();
        let mut flags = BTreeMap::new();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                positionals.push(tok);
                continue;
            };
            let value = match it.next_if(|v| !v.starts_with("--")) {
                Some(v) => v,
                None => String::from("true"), // boolean switch
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Args {
            command,
            positionals,
            flags,
            read: RefCell::default(),
        })
    }

    /// The command word.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// Bare (non-flag) tokens after the command, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Fails if any positional was given — for commands that take none.
    ///
    /// # Errors
    ///
    /// [`ArgError::UnexpectedPositional`] naming the first stray token.
    pub fn reject_positionals(&self) -> Result<(), ArgError> {
        match self.positionals.first() {
            Some(tok) => Err(ArgError::UnexpectedPositional(tok.clone())),
            None => Ok(()),
        }
    }

    /// Fails if a flag was given that the command never looked up — for
    /// a command to call once it has read every flag it accepts.
    ///
    /// # Errors
    ///
    /// [`ArgError::UnknownFlag`] naming the first such flag.
    pub fn reject_unknown(&self) -> Result<(), ArgError> {
        let read = self.read.borrow();
        match self.flags.keys().find(|name| !read.contains(*name)) {
            Some(name) => Err(ArgError::UnknownFlag(name.clone())),
            None => Ok(()),
        }
    }

    /// Raw flag value, if present. Marks `name` as a flag the command
    /// accepts.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.read.borrow_mut().insert(name.to_string());
        self.flags.get(name).map(String::as_str)
    }

    /// Required string flag.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingFlag`] if absent.
    pub fn require(&self, name: &'static str) -> Result<&str, ArgError> {
        self.get(name).ok_or(ArgError::MissingFlag(name))
    }

    /// Typed flag with a default.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] if present but unparsable.
    pub fn get_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: name.to_string(),
                value: v.to_string(),
                expected: expected.to_string(),
            }),
        }
    }

    /// Boolean switch (present ⇒ true).
    pub fn switch(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Comma-separated list of floats.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] on any unparsable element.
    pub fn get_f64_list(&self, name: &str, default: &[f64]) -> Result<Vec<f64>, ArgError> {
        match self.get(name) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim().parse().map_err(|_| ArgError::BadValue {
                        flag: name.to_string(),
                        value: v.to_string(),
                        expected: "comma-separated numbers".to_string(),
                    })
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_and_flags() {
        let a = parse("simulate --model vgg19 --gbps 15 --trace").unwrap();
        assert_eq!(a.command(), "simulate");
        assert_eq!(a.get("model"), Some("vgg19"));
        assert_eq!(a.get_or("gbps", 0.0, "number").unwrap(), 15.0);
        assert!(a.switch("trace"));
        assert!(!a.switch("quick"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("simulate").unwrap();
        assert_eq!(a.get_or("machines", 4usize, "integer").unwrap(), 4);
    }

    #[test]
    fn lists_parse() {
        let a = parse("sweep --gbps 1,2.5,10").unwrap();
        assert_eq!(a.get_f64_list("gbps", &[]).unwrap(), vec![1.0, 2.5, 10.0]);
        let b = parse("sweep").unwrap();
        assert_eq!(b.get_f64_list("gbps", &[4.0]).unwrap(), vec![4.0]);
    }

    #[test]
    fn positionals_are_collected_and_rejectable() {
        let a = parse("audit run.json --strict").unwrap();
        assert_eq!(a.positionals(), ["run.json"]);
        assert!(a.switch("strict"));
        assert!(matches!(
            a.reject_positionals().unwrap_err(),
            ArgError::UnexpectedPositional(t) if t == "run.json"
        ));
        assert!(parse("simulate --model vgg19")
            .unwrap()
            .reject_positionals()
            .is_ok());
    }

    #[test]
    fn errors_are_descriptive() {
        assert_eq!(parse("").unwrap_err(), ArgError::MissingCommand);
        assert!(matches!(
            parse("sim stray")
                .unwrap()
                .reject_positionals()
                .unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
        let a = parse("x --gbps abc").unwrap();
        assert!(matches!(
            a.get_or("gbps", 1.0, "number").unwrap_err(),
            ArgError::BadValue { .. }
        ));
        assert_eq!(
            a.require("model").unwrap_err(),
            ArgError::MissingFlag("model")
        );
        assert!(ArgError::MissingFlag("model")
            .to_string()
            .contains("--model"));
    }

    #[test]
    fn flags_never_read_are_unknown() {
        let a = parse("simulate --model vgg19 --gpbs 25 --trace").unwrap();
        let _ = a.get("model");
        let _ = a.switch("trace");
        assert_eq!(a.get_or("gbps", 10.0, "number").unwrap(), 10.0);
        let err = a.reject_unknown().unwrap_err();
        assert_eq!(err, ArgError::UnknownFlag("gpbs".into()));
        assert_eq!(err.to_string(), "unknown flag --gpbs (try `p3 help`)");
        let _ = a.get("gpbs");
        assert!(a.reject_unknown().is_ok());
    }

    #[test]
    fn switch_before_flag() {
        let a = parse("run --quick --model vgg19").unwrap();
        assert!(a.switch("quick"));
        assert_eq!(a.get("model"), Some("vgg19"));
    }
}
