//! FNV-1a, the repo-wide fingerprint and checksum primitive.
//!
//! Stable across Rust releases (unlike `DefaultHasher`), so its values can
//! be written to disk and recorded in fixtures: response fingerprints, the
//! weight- and cache-snapshot checksums and the searchers' golden values
//! all come from this one implementation. It guards against accidents
//! (truncation, bit rot), not adversaries.

/// A streaming 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash; splitting a stream across calls does
    /// not change the result.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The hash of `bytes` in one call.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut hasher = Self::new();
        hasher.write(bytes);
        hasher.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut hasher = Fnv1a::new();
        hasher.write(b"foo");
        hasher.write(b"");
        hasher.write(b"bar");
        assert_eq!(hasher.finish(), Fnv1a::hash(b"foobar"));
    }
}
