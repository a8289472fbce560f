//! FNV-1a-64, the one hash behind every digest the workspace publishes:
//! conflict-graph and layout digests, workload digests and the simulator
//! seeds derived from them, output hashes, session config digests, and the
//! serve cache keys and ETags. Goldens, `BENCH_*` baselines and caches pin
//! these values, so each feed below reproduces one historical encoding
//! exactly.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a-64 hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    #[inline]
    pub const fn new() -> Fnv1a {
        Fnv1a(OFFSET)
    }

    /// Byte-wise FNV-1a over `bytes`.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The little-endian bytes of `x`.
    #[inline]
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// `bytes` followed by a `0xFF` separator, so adjacent variable-length
    /// fields cannot alias.
    #[inline]
    pub fn field(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
        self.bytes(&[0xFF]);
    }

    /// One xor-multiply step over the whole of `x` rather than its bytes.
    /// This is not FNV-1a proper, but it is the encoding
    /// `ConflictGraph::digest` has always used, and goldens pin its values.
    #[inline]
    pub fn word(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(PRIME);
    }

    /// The digest of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 of one byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_fnv1a_64_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn feeds_are_their_byte_encodings() {
        let mut split = Fnv1a::new();
        split.bytes(b"foo");
        split.bytes(b"bar");
        assert_eq!(split.finish(), fnv1a(b"foobar"));

        let mut word = Fnv1a::new();
        word.u64(0x0102_0304_0506_0708);
        assert_eq!(word.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));

        let mut field = Fnv1a::new();
        field.field(b"ab");
        assert_eq!(field.finish(), fnv1a(b"ab\xFF"));

        let mut whole = Fnv1a::new();
        whole.word(u64::from(b'a'));
        assert_eq!(whole.finish(), fnv1a(b"a"));
    }
}
