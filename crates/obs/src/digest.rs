//! FNV-1a, 64-bit: the workspace's one digest.
//!
//! Every outcome fingerprint (chaos campaigns, scenarios, closed-loop
//! campaign reports, cluster outcomes), the `MCSTRACE` replay-log
//! checksum and the `MCSCLST1` cluster frame checksum hash through this
//! module, so two digests of the same bytes can never disagree because
//! two copies of the algorithm drifted.
//!
//! [`Fnv1a`] streams: integers go in as their little-endian bytes, so
//! `write_u64(x)` hashes exactly like `write_bytes(&x.to_le_bytes())`
//! and a streamed digest equals the one-shot [`fnv1a`] of the
//! concatenated bytes.

/// The 64-bit FNV offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Self {
        Fnv1a(OFFSET_BASIS)
    }
}

impl Fnv1a {
    /// A hasher over the empty input.
    #[inline]
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Hashes `bytes` in order.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Hashes one byte.
    #[inline]
    pub fn write_u8(&mut self, value: u8) {
        self.write_bytes(&[value]);
    }

    /// Hashes a `u32` as its little-endian bytes.
    #[inline]
    pub fn write_u32(&mut self, value: u32) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Hashes a `u64` as its little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// The digest of everything written so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The FNV-1a digest of one byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write_bytes(bytes);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streamed_writes_hash_like_the_concatenated_bytes() {
        let mut hasher = Fnv1a::new();
        hasher.write_bytes(b"foo");
        hasher.write_u8(0xAB);
        hasher.write_u32(0x0102_0304);
        hasher.write_u64(0x1122_3344_5566_7788);
        hasher.write_bytes(b"bar");

        let mut bytes = b"foo".to_vec();
        bytes.push(0xAB);
        bytes.extend_from_slice(&0x0102_0304u32.to_le_bytes());
        bytes.extend_from_slice(&0x1122_3344_5566_7788u64.to_le_bytes());
        bytes.extend_from_slice(b"bar");
        assert_eq!(hasher.finish(), fnv1a(&bytes));

        let mut split = Fnv1a::new();
        split.write_bytes(b"foo");
        split.write_bytes(b"bar");
        assert_eq!(split.finish(), fnv1a(b"foobar"));
    }
}
