//! Identifier newtypes shared across the parameter-server stack.

use core::fmt;

/// Index of a worker process (one per machine in the paper's deployments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub usize);

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Index of a parameter-server process. The common deployment colocates
/// server `i` with worker `i` on machine `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub usize);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A key in the key-value store: one independently synchronized unit (a
/// whole parameter array in baseline KVStore, or one slice of an array
/// under P3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u64);

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(WorkerId(2).to_string(), "w2");
        assert_eq!(ServerId(0).to_string(), "s0");
        assert_eq!(Key(17).to_string(), "k17");
    }

    #[expect(
        clippy::disallowed_types,
        reason = "checks the Hash derive; no iteration order is observed"
    )]
    #[test]
    fn ordering_and_hash_derive() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Key(1));
        s.insert(Key(1));
        assert_eq!(s.len(), 1);
        assert!(Key(1) < Key(2));
    }
}
