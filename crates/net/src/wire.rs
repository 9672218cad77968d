//! The wire value encoding: a minimal, explicit, stable byte format.
//!
//! The workspace's vendored `serde` is a derive-compatible *marker*
//! subset — it ships no serialization format — so the socket transport
//! defines its own: every value is encoded by a [`Wire`] impl into
//! big-endian, length-prefixed bytes with one-byte enum tags. The
//! format carries no schema and no versioning; both ends of a
//! connection are expected to run the same build, which is the
//! deployment model for a reproduction testbed (and is asserted by the
//! conformance suite rather than assumed).
//!
//! Decoding is total: malformed input — truncated values, out-of-range
//! tags, lengths exceeding [`MAX_FRAME`], non-UTF-8 strings — surfaces
//! a [`WireError`], never a panic, and a decoder never allocates
//! proportionally to an attacker-supplied length before the bytes
//! actually exist.

use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Upper bound, in bytes, on one frame (and on any length field inside
/// one). Large enough for any control message plus a generous payload;
/// small enough that a corrupt length prefix cannot trigger a huge
/// allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Error produced by [`Wire::decode`] on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended in the middle of a value.
    Truncated,
    /// A declared length exceeds [`MAX_FRAME`].
    Oversized(u64),
    /// A tag or invariant check failed (the message names it).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated mid-value"),
            WireError::Oversized(n) => write!(f, "declared length {n} exceeds MAX_FRAME"),
            WireError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl Error for WireError {}

/// A cursor over the bytes of one frame.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Consumes and returns the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }
}

/// A value with a stable byte encoding (see the module docs).
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value that must consume `buf` exactly.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Invalid("trailing bytes after value"));
        }
        Ok(v)
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.take(1)?[0])
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let b = r.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let b = r.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::decode(r)?).map_err(|_| WireError::Invalid("usize overflow"))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool tag")),
        }
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Wire for Duration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_secs().encode(out);
        self.subsec_nanos().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let secs = u64::decode(r)?;
        let nanos = u32::decode(r)?;
        if nanos >= 1_000_000_000 {
            return Err(WireError::Invalid("subsecond nanos out of range"));
        }
        Ok(Duration::new(secs, nanos))
    }
}

/// Encodes a string slice: a `u64` length, then the bytes.
pub(crate) fn encode_str(s: &str, out: &mut Vec<u8>) {
    (s.len() as u64).encode(out);
    out.extend_from_slice(s.as_bytes());
}

/// Decodes a string in place, borrowing the frame, so a type that keeps
/// its text in some other owner than `String` copies it once.
pub(crate) fn decode_str<'a>(r: &mut Reader<'a>) -> Result<&'a str, WireError> {
    let len = u64::decode(r)?;
    if len > MAX_FRAME as u64 {
        return Err(WireError::Oversized(len));
    }
    std::str::from_utf8(r.take(len as usize)?).map_err(|_| WireError::Invalid("non-UTF-8 string"))
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        decode_str(r).map(str::to_owned)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError::Invalid("option tag")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = Vec::new();
        decode_into(r, &mut out).map(|()| out)
    }
}

/// Decodes a list into `out`, emptied first, so a kept list's room is reused.
pub(crate) fn decode_into<T: Wire>(r: &mut Reader<'_>, out: &mut Vec<T>) -> Result<(), WireError> {
    let len = u64::decode(r)?;
    if len > MAX_FRAME as u64 {
        return Err(WireError::Oversized(len));
    }
    // The count is attacker-controlled, the remaining bytes are not: reserve
    // no more elements than there are bytes left (each takes one at least),
    // and at most 64 up front; an empty list gets exactly that.
    out.clear();
    out.reserve_exact((len as usize).min(r.remaining()).min(64));
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(())
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + fmt::Debug>(v: T) {
        assert_eq!(T::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f64);
        roundtrip(f64::NAN.to_bits()); // NaN via bits; f64 NaN != NaN
        roundtrip(Duration::new(3, 999_999_999));
        roundtrip(String::from("héllo"));
        roundtrip(Option::<u64>::None);
        roundtrip(Some(9u64));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip((String::from("k"), 7u64));
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = 12345u64.to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                u64::from_bytes(&bytes[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_without_allocating() {
        let mut evil = Vec::new();
        (u64::MAX).encode(&mut evil); // string length far beyond MAX_FRAME
        assert!(matches!(
            String::from_bytes(&evil),
            Err(WireError::Oversized(_))
        ));
        assert!(matches!(
            Vec::<u64>::from_bytes(&evil),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn huge_vec_count_with_no_bytes_is_truncated() {
        let mut evil = Vec::new();
        (MAX_FRAME as u64).encode(&mut evil); // plausible count, no elements
        assert_eq!(Vec::<u64>::from_bytes(&evil), Err(WireError::Truncated));
    }

    /// A list the frame can hold is allocated once, at its length.
    #[test]
    fn a_short_list_is_decoded_without_regrowth() {
        for n in [0usize, 1, 5, 64] {
            let list: Vec<u64> = (0..n as u64).collect();
            let got = Vec::<u64>::from_bytes(&list.to_bytes()).unwrap();
            assert_eq!((got.len(), got.capacity()), (n, n));
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 5u64.to_bytes();
        bytes.push(0);
        assert!(matches!(
            u64::from_bytes(&bytes),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert!(matches!(bool::from_bytes(&[2]), Err(WireError::Invalid(_))));
        assert!(matches!(
            Option::<u8>::from_bytes(&[7]),
            Err(WireError::Invalid(_))
        ));
    }
}
