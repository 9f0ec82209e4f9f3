//! 64-bit FNV-1a content hashing.
//!
//! The paper (§II-A) identifies a news item by an 8-byte hash that "is not
//! transmitted but computed by nodes when they receive the item". FNV-1a is
//! small, allocation-free and byte-order independent — exactly what a wire
//! protocol wants for a content id. (HashDoS resistance is irrelevant here:
//! the id is a content digest, not a hash-table key under adversarial
//! control.)

/// FNV-1a offset basis (64-bit).
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes a byte slice with FNV-1a (64-bit).
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Incremental FNV-1a hasher for hashing an item's fields without
/// concatenating them into a temporary buffer.
#[derive(Debug, Clone)]
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(OFFSET)
    }
}

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Feeds bytes into the hash.
    #[inline]
    fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Feeds a length-prefixed field, so that ("ab","c") and ("a","bc")
    /// hash differently.
    #[inline]
    pub(crate) fn update_field(&mut self, bytes: &[u8]) -> &mut Self {
        self.update(&(bytes.len() as u32).to_le_bytes());
        self.update(bytes)
    }

    /// Final hash value.
    #[inline]
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// The SplitMix64 finalizer: one avalanche round, full 64-bit diffusion.
/// The one copy core and the simulator share; each caller mixes its own
/// inputs into `x` first.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64: the golden-ratio increment, then [`mix64`].
#[inline]
fn splitmix64(v: u64) -> u64 {
    mix64(v.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// Deterministic integer hasher for id-keyed tables on hot paths (the
/// per-node `seen` set, the shard item registry). One SplitMix64 round
/// replaces SipHash: these keys are internal ids, not adversarial input, so
/// HashDoS resistance buys nothing, and the default hasher's per-lookup
/// cost is measurable at millions of receptions per run. Table iteration
/// order is never observable (checkpoints sort before export), so swapping
/// the hasher cannot perturb any report.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the integer keys this is built for).
        self.0 = splitmix64(self.0 ^ fnv1a64(bytes));
    }
}

/// `BuildHasher` plugging [`IdHasher`] into `HashSet`/`HashMap`.
pub type BuildIdHasher = std::hash::BuildHasherDefault<IdHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_hasher_spreads_dense_ids() {
        use std::hash::Hasher;
        let h = |v: u64| {
            let mut s = IdHasher::default();
            s.write_u64(v);
            s.finish()
        };
        let distinct: std::collections::HashSet<u64> = (0..1000).map(h).collect();
        assert_eq!(distinct.len(), 1000, "dense ids must not collide");
        assert_eq!(h(7), h(7), "pure function of the key");
    }

    #[test]
    fn known_vectors() {
        // Reference values for FNV-1a 64-bit.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv1a::new();
        h.update(b"foo").update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn field_prefix_disambiguates() {
        let mut a = Fnv1a::new();
        a.update_field(b"ab").update_field(b"c");
        let mut b = Fnv1a::new();
        b.update_field(b"a").update_field(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn distinct_inputs_differ() {
        assert_ne!(fnv1a64(b"breaking news"), fnv1a64(b"breaking news!"));
    }
}
