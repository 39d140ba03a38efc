//! Hand-rolled binary codec for simulation snapshots.
//!
//! Snapshots must round-trip bit-exactly (floating-point rates included)
//! and fail loudly on malformed input, so the format is a flat
//! little-endian byte stream with an explicit magic + version header and
//! no external dependencies. Every scalar a simulation holds maps onto
//! one of the [`Coder`] primitives here; composites are written with the
//! shapes below ([`seq`], [`fixed`], [`opt`]).
//!
//! A [`Coder`] is one direction of the codec. A snapshot walk names each
//! field once and hands it over by `&mut`: [`SnapWriter`] appends it,
//! [`SnapReader`] overwrites it, [`FnvFold`] hashes it. So each field
//! order is written down in exactly one place: the cluster engine walks
//! its own state, and the network fabric walks its own fields.
//!
//! Layout: `b"P3SNAP\0\0"` (8 bytes) · format version (`u32`) · config
//! fingerprint (`u64`) · body. Readers verify magic and version before
//! touching the body and report [`SnapshotError::Truncated`] instead of
//! panicking when the stream ends early.

use crate::SimTime;
use std::error::Error;
use std::fmt;

/// Magic prefix identifying a snapshot byte stream.
pub const SNAP_MAGIC: [u8; 8] = *b"P3SNAP\0\0";

/// Current snapshot format version. Bump on any layout change; readers
/// reject other versions rather than guessing. v2 appended the network's
/// deterministic work counters (`NetStats` in `p3-net`) to the net section;
/// v3 dropped every engine field that other stored state or the
/// configuration determines; v4 dropped each fabric flow's rate and
/// bottleneck and each parameter-server message's size, which a reader
/// derives.
pub const SNAP_VERSION: u32 = 4;

/// Why a snapshot byte stream could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The stream ended before the expected data did.
    Truncated,
    /// The stream does not start with the snapshot magic.
    BadMagic,
    /// The stream's format version is not the one this build writes.
    UnsupportedVersion {
        /// Version found in the stream header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The stream decoded but its contents are inconsistent.
    Corrupt(String),
    /// The snapshot was taken under a different configuration than the
    /// one it is being restored into.
    ConfigMismatch,
    /// Reading or writing the snapshot file failed.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "snapshot format v{found} unsupported (expected v{expected})"
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapshotError::ConfigMismatch => {
                write!(f, "snapshot was taken under a different configuration")
            }
            SnapshotError::Io(why) => write!(f, "snapshot io: {why}"),
        }
    }
}

impl Error for SnapshotError {}

/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME` to the power `n`, wrapping.
const fn fnv_prime_pow(n: u32) -> u64 {
    let mut pow = 1u64;
    let mut k = 0;
    while k < n {
        pow = pow.wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
}

/// `FNV_PRIME` to the powers 0 through 8, wrapping.
const FNV_PRIME_POW: [u64; 9] = [
    fnv_prime_pow(0),
    fnv_prime_pow(1),
    fnv_prime_pow(2),
    fnv_prime_pow(3),
    fnv_prime_pow(4),
    fnv_prime_pow(5),
    fnv_prime_pow(6),
    fnv_prime_pow(7),
    fnv_prime_pow(8),
];

/// FNV-1a over a byte slice; used for the config fingerprint and the
/// rolling state hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one `u64` into a rolling FNV-1a hash, its bytes in little-endian
/// order.
///
/// Only the bytes up to the word's highest non-zero byte are folded one
/// by one. A zero byte's step is a bare multiply by the prime (XOR with 0
/// changes nothing), and wrapping multiplication is associative, so the
/// high zero bytes together are one multiply by a power of the prime. The
/// value is the byte-wise FNV-1a's, with far fewer dependent multiplies
/// for the small fields an event holds.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "leading_zeros is at most 64, so the index is at most 8, the table's last entry"
)]
pub fn fnv64_fold(mut h: u64, word: u64) -> u64 {
    let zeros = (word.leading_zeros() / 8) as usize;
    let mut w = word;
    for _ in zeros..8 {
        h ^= w & 0xff;
        h = h.wrapping_mul(FNV_PRIME);
        w >>= 8;
    }
    h.wrapping_mul(FNV_PRIME_POW[zeros])
}

type Res = Result<(), SnapshotError>;

/// One direction of the snapshot codec. Every primitive takes its field
/// by `&mut`: a writer or folder consumes the value, a reader overwrites
/// it. Checks (`idx`, `fixed_len`, `check`) fire only when reading.
pub trait Coder {
    /// True for the reader. The only direction test a walk makes.
    const READING: bool;

    // Fixed-width little-endian integers: all a direction implements.

    /// One byte.
    fn u8(&mut self, v: &mut u8) -> Res;
    /// A little-endian `u32`.
    fn u32(&mut self, v: &mut u32) -> Res;
    /// A little-endian `u64`.
    fn u64(&mut self, v: &mut u64) -> Res;
    /// A little-endian `u128`.
    fn u128(&mut self, v: &mut u128) -> Res;

    /// A `usize` as `u64` (lengths, indices).
    fn usize(&mut self, v: &mut usize) -> Res {
        let mut w = *v as u64;
        self.u64(&mut w)?;
        if Self::READING {
            *v = usize::try_from(w)
                .map_err(|_| SnapshotError::Corrupt(format!("usize overflow: {w}")))?;
        }
        Ok(())
    }

    /// An `f64` as its exact bit pattern.
    fn f64(&mut self, v: &mut f64) -> Res {
        let mut bits = v.to_bits();
        self.u64(&mut bits)?;
        if Self::READING {
            *v = f64::from_bits(bits);
        }
        Ok(())
    }

    /// A bool as one byte; a reader rejects anything but 0 or 1.
    fn bool(&mut self, v: &mut bool) -> Res {
        let mut b = u8::from(*v);
        self.u8(&mut b)?;
        if Self::READING {
            *v = match b {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::Corrupt(format!("bool byte {b:#04x}"))),
            };
        }
        Ok(())
    }

    /// Fails with [`SnapshotError::Corrupt`]`(what)` when reading and
    /// `ok` is false; a no-op in every other direction.
    fn check(&mut self, ok: bool, what: &str) -> Res {
        if Self::READING && !ok {
            return Err(SnapshotError::Corrupt(what.to_string()));
        }
        Ok(())
    }

    /// An index the engine will later trust: a reader rejects `v >= bound`.
    fn idx(&mut self, v: &mut usize, bound: usize, what: &str) -> Res {
        self.usize(v)?;
        self.check(*v < bound, what)
    }

    /// A free length `n`, returning the length the stream carries. A
    /// reader caps it so a corrupt stream cannot trigger a huge allocation.
    fn len(&mut self, n: usize) -> Result<usize, SnapshotError> {
        let mut v = n;
        self.usize(&mut v)?;
        // No engine collection remotely approaches this; a larger value
        // is a mis-framed stream.
        if Self::READING && v > 1 << 32 {
            return Err(SnapshotError::Corrupt(format!("implausible length {v}")));
        }
        Ok(v)
    }

    /// A length the configuration fixes at `n`: a reader rejects any other.
    fn fixed_len(&mut self, n: usize, what: &str) -> Res {
        let found = self.len(n)?;
        self.check(found == n, what)
    }

    /// An enum variant's tag, coded from inside the variant's arm of a
    /// walk. A reader skips it: it already read the tag to pick the
    /// variant it fills.
    fn tag(&mut self, tag: u8) -> Res {
        if Self::READING {
            return Ok(());
        }
        self.u8(&mut { tag })
    }
}

/// Append-only snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Starts a stream with the magic, format version, and config
    /// fingerprint already written.
    pub fn new(config_fingerprint: u64) -> SnapWriter {
        let mut w = SnapWriter { buf: Vec::new() };
        w.buf.extend_from_slice(&SNAP_MAGIC);
        w.buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        w.buf.extend_from_slice(&config_fingerprint.to_le_bytes());
        w
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Coder for SnapWriter {
    const READING: bool = false;

    #[inline]
    fn u8(&mut self, v: &mut u8) -> Res {
        self.buf.push(*v);
        Ok(())
    }

    #[inline]
    fn u32(&mut self, v: &mut u32) -> Res {
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    #[inline]
    fn u64(&mut self, v: &mut u64) -> Res {
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    #[inline]
    fn u128(&mut self, v: &mut u128) -> Res {
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
}

/// Cursor-based snapshot decoder. Every primitive returns
/// [`SnapshotError::Truncated`] instead of panicking when the stream
/// runs out.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Validates the header (magic + version) and returns a reader
    /// positioned at the body along with the config fingerprint.
    pub fn new(data: &'a [u8]) -> Result<(SnapReader<'a>, u64), SnapshotError> {
        if data.len() < SNAP_MAGIC.len() {
            return Err(SnapshotError::Truncated);
        }
        if !data.starts_with(&SNAP_MAGIC) {
            return Err(SnapshotError::BadMagic);
        }
        let mut r = SnapReader {
            data,
            pos: SNAP_MAGIC.len(),
        };
        let mut version = 0;
        r.u32(&mut version)?;
        if version != SNAP_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                expected: SNAP_VERSION,
            });
        }
        let mut fingerprint = 0;
        r.u64(&mut fingerprint)?;
        Ok((r, fingerprint))
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let end = self.pos.checked_add(N).ok_or(SnapshotError::Truncated)?;
        let bytes = self
            .data
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        let mut out = [0; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// Fails unless the whole stream was consumed — trailing bytes mean
    /// the stream and the decoder disagree about the layout.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes",
                self.data.len() - self.pos
            )))
        }
    }
}

impl Coder for SnapReader<'_> {
    const READING: bool = true;

    #[inline]
    fn u8(&mut self, v: &mut u8) -> Res {
        *v = u8::from_le_bytes(self.take()?);
        Ok(())
    }

    #[inline]
    fn u32(&mut self, v: &mut u32) -> Res {
        *v = u32::from_le_bytes(self.take()?);
        Ok(())
    }

    #[inline]
    fn u64(&mut self, v: &mut u64) -> Res {
        *v = u64::from_le_bytes(self.take()?);
        Ok(())
    }

    #[inline]
    fn u128(&mut self, v: &mut u128) -> Res {
        *v = u128::from_le_bytes(self.take()?);
        Ok(())
    }
}

/// A coder that folds every primitive into a rolling FNV-1a hash as one
/// `u64` word (see [`fnv64_fold`]) and checks nothing.
#[derive(Debug)]
pub struct FnvFold(pub u64);

impl Coder for FnvFold {
    const READING: bool = false;

    #[inline]
    fn u8(&mut self, v: &mut u8) -> Res {
        self.0 = fnv64_fold(self.0, u64::from(*v));
        Ok(())
    }

    #[inline]
    fn u32(&mut self, v: &mut u32) -> Res {
        self.0 = fnv64_fold(self.0, u64::from(*v));
        Ok(())
    }

    #[inline]
    fn u64(&mut self, v: &mut u64) -> Res {
        self.0 = fnv64_fold(self.0, *v);
        Ok(())
    }

    #[inline]
    fn u128(&mut self, v: &mut u128) -> Res {
        self.0 = fnv64_fold(fnv64_fold(self.0, *v as u64), (*v >> 64) as u64);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Shapes: how each kind of container is laid out.

/// A free-length list: its length, then each element. A reader rebuilds
/// `v` from copies of `blank`, each filled by `each`.
pub fn seq<C: Coder, T: Clone>(
    c: &mut C,
    v: &mut Vec<T>,
    blank: T,
    mut each: impl FnMut(&mut C, &mut T) -> Res,
) -> Res {
    let n = c.len(v.len())?;
    if C::READING {
        v.clear();
        for _ in 0..n {
            let mut x = blank.clone();
            each(c, &mut x)?;
            v.push(x);
        }
        return Ok(());
    }
    v.iter_mut().try_for_each(|x| each(c, x))
}

/// A list whose length the configuration fixes: a reader walks a fresh
/// value built from the same configuration, which already has that
/// length, so the stream must carry the same one.
pub fn fixed<C: Coder, T>(
    c: &mut C,
    v: &mut [T],
    what: &str,
    mut each: impl FnMut(&mut C, &mut T) -> Res,
) -> Res {
    c.fixed_len(v.len(), what)?;
    v.iter_mut().try_for_each(|x| each(c, x))
}

/// A presence flag, then the value if present.
pub fn opt<C: Coder, T>(
    c: &mut C,
    v: &mut Option<T>,
    blank: T,
    each: impl FnOnce(&mut C, &mut T) -> Res,
) -> Res {
    let mut some = v.is_some();
    c.bool(&mut some)?;
    if C::READING {
        *v = some.then_some(blank);
    }
    match v {
        Some(x) => each(c, x),
        None => Ok(()),
    }
}

/// An instant as its nanosecond count.
pub fn time<C: Coder>(c: &mut C, t: &mut SimTime) -> Res {
    let mut nanos = t.as_nanos();
    c.u64(&mut nanos)?;
    *t = SimTime::from_nanos(nanos);
    Ok(())
}

/// An optional instant.
pub fn opt_time<C: Coder>(c: &mut C, t: &mut Option<SimTime>) -> Res {
    opt(c, t, SimTime::ZERO, time)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Codes one of each primitive, in both directions.
    fn primitives<C: Coder>(c: &mut C, v: &mut Primitives) -> Res {
        c.u8(&mut v.byte)?;
        c.bool(&mut v.yes)?;
        c.bool(&mut v.no)?;
        c.u32(&mut v.word)?;
        c.u64(&mut v.long)?;
        c.u128(&mut v.wide)?;
        c.usize(&mut v.size)?;
        c.f64(&mut v.real)?;
        c.f64(&mut v.nan)
    }

    #[derive(Debug, Default, PartialEq)]
    struct Primitives {
        byte: u8,
        yes: bool,
        no: bool,
        word: u32,
        long: u64,
        wide: u128,
        size: usize,
        real: f64,
        nan: f64,
    }

    fn write(f: impl FnOnce(&mut SnapWriter) -> Res) -> Vec<u8> {
        let mut w = SnapWriter::new(1);
        f(&mut w).unwrap();
        w.finish()
    }

    #[test]
    fn primitives_round_trip() {
        let mut v = Primitives {
            byte: 7,
            yes: true,
            no: false,
            word: 0xdead_beef,
            long: u64::MAX,
            wide: 0x0123_4567_89ab_cdef_0123_4567_89ab_cdef,
            size: 42,
            real: -0.125,
            nan: f64::NAN,
        };
        let mut w = SnapWriter::new(0xfeed);
        primitives(&mut w, &mut v).unwrap();
        let bytes = w.finish();

        let (mut r, fp) = SnapReader::new(&bytes).unwrap();
        assert_eq!(fp, 0xfeed);
        let mut back = Primitives::default();
        primitives(&mut r, &mut back).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.nan.to_bits(), v.nan.to_bits()); // exact bit pattern
        (back.nan, v.nan) = (0.0, 0.0);
        assert_eq!(back, v);
    }

    #[test]
    fn fold_hashes_each_primitive_as_one_word() {
        let mut f = FnvFold(5);
        f.u8(&mut 1).unwrap();
        f.u32(&mut 2).unwrap();
        f.usize(&mut 3).unwrap();
        assert_eq!(f.0, fnv64_fold(fnv64_fold(fnv64_fold(5, 1), 2), 3));
    }

    /// Byte-at-a-time FNV-1a of one word's little-endian bytes: what
    /// [`fnv64_fold`] must equal.
    fn fold_bytewise(mut h: u64, word: u64) -> u64 {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn fold_equals_bytewise_fnv_on_edge_words() {
        let mut words = vec![0, u64::MAX];
        words.extend((0..8).flat_map(|k| (0..=255u64).map(move |b| b << (8 * k))));
        for h in [0xcbf2_9ce4_8422_2325, 0, u64::MAX] {
            for &w in &words {
                assert_eq!(
                    fnv64_fold(h, w),
                    fold_bytewise(h, w),
                    "h {h:#x}, word {w:#x}"
                );
            }
        }
    }

    /// On random hashes and words with zero bytes forced at random
    /// positions, the fold equals byte-wise FNV-1a. Few cases under Miri,
    /// which interprets every multiply.
    #[test]
    fn fold_equals_bytewise_fnv() {
        let cases = if cfg!(miri) { 8 } else { 512 };
        for case in 0..cases {
            let mut rng = proptest::TestRng::for_case("fold_equals_bytewise_fnv", case);
            let (h, word, zeros) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
            let mask = (0..8)
                .filter(|k| zeros >> k & 1 == 1)
                .fold(u64::MAX, |m, k| m & !(0xff << (8 * k)));
            let w = word & mask;
            assert_eq!(
                fnv64_fold(h, w),
                fold_bytewise(h, w),
                "case {case}: h {h:#x}, word {w:#x}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = SnapWriter::new(1).finish();
        bytes[0] = b'X';
        assert_eq!(
            SnapReader::new(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = SnapWriter::new(1).finish();
        bytes[8] = 0xff; // low byte of the version field
        assert!(matches!(
            SnapReader::new(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 0xff,
                expected: SNAP_VERSION
            }
        ));
    }

    #[test]
    fn truncation_reported_not_panicked() {
        let bytes = write(|w| w.u64(&mut 5));
        for cut in 0..bytes.len() {
            let r = SnapReader::new(&bytes[..cut]);
            match r {
                Err(SnapshotError::Truncated) => {}
                Ok((mut rd, _)) => {
                    assert_eq!(rd.u64(&mut 0).unwrap_err(), SnapshotError::Truncated)
                }
                Err(e) => panic!("unexpected error at cut {cut}: {e}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut bytes = SnapWriter::new(1).finish();
        bytes.push(0);
        let (r, _) = SnapReader::new(&bytes).unwrap();
        assert!(matches!(r.expect_end(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let bytes = write(|w| w.u8(&mut 2));
        let (mut r, _) = SnapReader::new(&bytes).unwrap();
        assert!(matches!(r.bool(&mut false), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn reader_checks_bounds_and_lengths_writer_does_not() {
        let bytes = write(|w| {
            w.idx(&mut 4, 4, "ignored")?;
            w.fixed_len(3, "ignored")?;
            w.usize(&mut (1 << 33))
        });
        let (mut r, _) = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            r.idx(&mut 0, 4, "index out of range"),
            Err(SnapshotError::Corrupt("index out of range".into()))
        );
        assert_eq!(
            r.fixed_len(2, "length"),
            Err(SnapshotError::Corrupt("length".into()))
        );
        assert!(matches!(r.len(0), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn tags_are_written_but_not_read() {
        let bytes = write(|w| w.tag(9));
        let (mut r, _) = SnapReader::new(&bytes).unwrap();
        r.tag(9).unwrap();
        let mut t = 0;
        r.u8(&mut t).unwrap();
        assert_eq!(t, 9);
        r.expect_end().unwrap();
    }
}
