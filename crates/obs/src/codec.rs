//! The workspace's one binary codec: a little-endian [`Writer`] and a
//! bounds-checked [`Reader`].
//!
//! Both byte formats the workspace writes encode through this module:
//! the `MCSTRACE` drive log ([`crate::replay`]) and the `MCSCLST1`
//! cluster wire protocol (`mcs_cluster::wire`). Integers are
//! little-endian; an `f64` travels as its raw `to_bits` pattern, never
//! as decimal text, so a decoded float is bitwise the encoded one;
//! strings and vectors carry a `u32` length prefix. Each format keeps
//! its own framing and checksum — this module only moves values to and
//! from bytes.
//!
//! Decoding is total: every defect is a typed [`CodecError`], never a
//! panic; a shortfall carries its byte offset, and a vector count is
//! checked against the bytes left before anything is allocated for it.

/// Why a [`Reader`] could not decode a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ends before the value that starts at `offset`.
    Truncated {
        /// Byte offset of the value that did not fit.
        offset: usize,
    },
    /// A string is not valid UTF-8.
    BadUtf8,
    /// Bytes remain after the last value.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
}

/// Appends little-endian values to a byte buffer.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            bytes: Vec::with_capacity(capacity),
        }
    }

    /// Everything written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The written buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Appends `bytes` verbatim (magics, framed payloads).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, value: u8) {
        self.bytes.push(value);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, value: u32) {
        self.raw(&value.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, value: u64) {
        self.raw(&value.to_le_bytes());
    }

    /// Appends an `f64` as its raw bit pattern.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// Appends a `u32` length prefix; panics past `u32::MAX`.
    pub fn len(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("length fits a u32 prefix"));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, value: &str) {
        self.len(value.len());
        self.raw(value.as_bytes());
    }

    /// Appends a length-prefixed vector, each element written by `put`.
    pub fn seq<I>(&mut self, items: I, mut put: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.len(items.len());
        for item in items {
            put(self, item);
        }
    }
}

/// Reads little-endian values off a byte slice, front to back. A value
/// that does not fit the bytes left is a [`CodecError::Truncated`] at
/// the offset it starts at.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// The offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.at
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let rest = &self.bytes[self.at..];
        if n > rest.len() {
            return Err(CodecError::Truncated { offset: self.at });
        }
        self.at += n;
        Ok(&rest[..n])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.array().map(|[byte]| byte)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.u64().map(f64::from_bits)
    }

    /// A `u32` length prefix, refused when `len` elements of at least
    /// `min_element` bytes each could not fit the bytes left — so a
    /// corrupted count fails here, at the offset the elements would
    /// start, instead of becoming an allocation.
    pub fn len(&mut self, min_element: usize) -> Result<usize, CodecError> {
        let len = self.u32()? as usize;
        if len.saturating_mul(min_element.max(1)) > self.bytes.len() - self.at {
            return Err(CodecError::Truncated { offset: self.at });
        }
        Ok(len)
    }

    /// A length-prefixed string; [`CodecError::BadUtf8`] if not UTF-8.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.len(1)?;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::BadUtf8)
    }

    /// A length-prefixed vector of elements of at least `min_element`
    /// bytes each, each read by `get`, collected in order; the first
    /// error of the count or of any element stops it.
    pub fn seq<C, T, E>(
        &mut self,
        min_element: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<C, E>
    where
        C: FromIterator<T>,
        E: From<CodecError>,
    {
        let len = self.len(min_element)?;
        (0..len).map(|_| get(self)).collect()
    }

    /// Checks that every byte was read, else
    /// [`CodecError::TrailingBytes`].
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.bytes.len() - self.at {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_bitwise() {
        let mut w = Writer::default();
        w.u8(0xAB);
        w.u32(0x0102_0304);
        w.u64(u64::MAX - 1);
        for x in [1.0 / 3.0, -0.0, f64::MIN_POSITIVE, f64::NAN] {
            w.f64(x);
        }
        w.str("α-β");
        w.seq([7u32, 9], |w, x| w.u32(x));
        let bytes = w.into_bytes();
        assert_eq!(&bytes[1..5], &[4, 3, 2, 1], "little-endian");

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u32(), Ok(0x0102_0304));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        for x in [1.0 / 3.0, -0.0, f64::MIN_POSITIVE, f64::NAN] {
            assert_eq!(r.f64().unwrap().to_bits(), x.to_bits());
        }
        assert_eq!(r.str(), Ok("α-β"));
        let xs: Result<Vec<u32>, CodecError> = r.seq(4, Reader::u32);
        assert_eq!(xs, Ok(vec![7, 9]));
        assert_eq!(r.offset(), bytes.len());
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn shortfalls_carry_their_offsets() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u32(), Err(CodecError::Truncated { offset: 1 }));
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes { extra: 2 }));

        // A count of 2 elements of at least 4 bytes cannot fit 4 bytes.
        let mut w = Writer::default();
        w.len(2);
        w.u32(0);
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes).len(4),
            Err(CodecError::Truncated { offset: 4 })
        );
        assert_eq!(Reader::new(&bytes).len(2), Ok(2));

        let mut w = Writer::default();
        w.len(2);
        w.raw(&[0xC3, 0x28]);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).str(), Err(CodecError::BadUtf8));
    }
}
