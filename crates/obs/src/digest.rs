//! FNV-1a, 64-bit: the workspace's one digest; and SplitMix64, its one
//! seed mixer.
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
//!
//! [`mix64`] derives every seeded stream from a composite key — per-round
//! RNG seeds, shard seeds, shed coins, synthetic bids, scenario draws —
//! and [`unit`](fn@unit) turns it into a uniform draw, so no two streams can
//! disagree because two copies of the mixer drifted.

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

/// SplitMix64 over the key `(seed, a, b)`: its finalizer applied to
/// `seed ^ a·0x9E37_79B9_7F4A_7C15 ^ b·0xD1B5_4A32_D192_ED03`. A zero `b`
/// (or `seed`) drops out of the key, which gives the one- and two-part
/// forms.
#[inline]
pub fn mix64(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`: the top 53 bits of [`mix64`].
#[inline]
pub fn unit(seed: u64, a: u64, b: u64) -> f64 {
    (mix64(seed, a, b) >> 11) as f64 / (1u64 << 53) as f64
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

    #[test]
    fn mix64_known_answers() {
        // SplitMix64's first output from state 0 is mix64(0, 1, 0).
        assert_eq!(mix64(0, 1, 0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(
            unit(0, 1, 0),
            (0xe220_a839_7b1d_cdafu64 >> 11) as f64 / 2f64.powi(53)
        );
        assert_ne!(mix64(7, 3, 0), mix64(7, 3, 1));
    }
}
