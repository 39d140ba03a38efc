//! Offline drop-in subset of the [`bytes`](https://crates.io/crates/bytes)
//! crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a tiny slice of the `bytes` API: the [`Buf`]/[`BufMut`] cursor
//! traits (big-endian accessors, as in the real crate), a growable
//! [`BytesMut`], and an immutable [`Bytes`] view with cheap slicing.
//!
//! No code calls it. `p3-pserver` still declares the dependency because
//! the benchmark's own lockfile (`ledger/Cargo.lock`) records that edge;
//! the crate and the edge go together with the next change to that lock.
//!
//! Semantics match the upstream crate for the covered surface; anything
//! outside it is intentionally absent.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use core::ops::{Deref, DerefMut, Index, IndexMut, RangeBounds};

/// Read cursor over a contiguous byte region.
///
/// All multi-byte accessors are big-endian, matching the defaults of the
/// real `bytes` crate.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];

    /// Consumes `cnt` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cnt` exceeds [`Buf::remaining`].
    fn advance(&mut self, cnt: usize);

    /// Copies `dst.len()` bytes out of the buffer.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Reads a big-endian `f32`.
    fn get_f32(&mut self) -> f32 {
        f32::from_bits(self.get_u32())
    }

    /// Reads a big-endian `f64`.
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }
}

/// Write cursor appending to a byte container.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `f32`.
    fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends a big-endian `f64`.
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "cannot advance past end of slice");
        *self = &self[cnt..];
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// A growable byte buffer, written through [`BufMut`] and frozen into
/// [`Bytes`] for reading.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// An empty buffer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.data,
            start: 0,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl Index<usize> for BytesMut {
    type Output = u8;

    fn index(&self, i: usize) -> &u8 {
        &self.data[i]
    }
}

impl IndexMut<usize> for BytesMut {
    fn index_mut(&mut self, i: usize) -> &mut u8 {
        &mut self.data[i]
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

/// An immutable byte region with a read cursor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    start: usize,
}

impl Bytes {
    /// Bytes not yet consumed.
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-range of the unconsumed bytes as a new `Bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use core::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds"
        );
        Bytes {
            data: self.data[self.start + lo..self.start + hi].to_vec(),
            start: 0,
        }
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        &self.data[self.start..]
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "cannot advance past end of Bytes");
        self.start += cnt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_endian_roundtrip() {
        let mut b = BytesMut::new();
        b.put_u16(0x5033);
        b.put_u8(7);
        b.put_u32(0xDEAD_BEEF);
        b.put_u64(42);
        b.put_f32(1.5);
        assert_eq!(b.len(), 2 + 1 + 4 + 8 + 4);
        assert_eq!(b[0], 0x50); // big-endian, like the real crate
        let mut r = b.freeze();
        assert_eq!(r.get_u16(), 0x5033);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64(), 42);
        assert_eq!(r.get_f32(), 1.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slice_reads_like_slices() {
        let mut data: &[u8] = &[0, 1, 2, 3];
        assert_eq!(data.get_u16(), 1);
        assert_eq!(data.remaining(), 2);
        assert_eq!(data.get_u16(), 0x0203);
    }

    #[test]
    fn bytes_slice_is_a_window() {
        let mut b = BytesMut::new();
        b.put_slice(&[10, 11, 12, 13, 14]);
        let f = b.freeze();
        let mut w = f.slice(1..4);
        assert_eq!(w.len(), 3);
        assert_eq!(w.get_u8(), 11);
        assert_eq!(w.chunk(), &[12, 13]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut short: &[u8] = &[1];
        short.get_u32();
    }
}
