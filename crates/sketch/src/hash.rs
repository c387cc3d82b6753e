//! The seeded hash family used by ℍ and the sketches.
//!
//! Tofino's hash engines compute CRC-family functions over selected PHV
//! bits; what matters for Newton is that (a) each ℍ instance can be
//! configured with an *algorithm* (here: a seed selecting a member of the
//! family) and an *output range* (the register-index width), and (b)
//! different seeds behave as independent functions. A SplitMix64-style
//! finalizer over the 128-bit key gives both properties deterministically
//! and cheaply.

/// A member of the hash family: a seed plus an output range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFn {
    seed: u64,
    /// Output range; results are in `0..range`. Must be ≥ 1.
    range: u32,
}

impl HashFn {
    /// Create a hash function with the given seed and output range.
    ///
    /// # Panics
    /// Panics if `range == 0`.
    #[inline]
    pub fn new(seed: u64, range: u32) -> Self {
        assert!(range >= 1, "hash output range must be >= 1");
        HashFn { seed, range }
    }

    /// The configured output range.
    pub fn range(&self) -> u32 {
        self.range
    }

    /// The configured seed (identifies the family member).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Hash a 128-bit key (the masked global field vector) into `0..range`.
    #[inline]
    pub fn hash(&self, key: u128) -> u32 {
        let h = mix128(key, self.seed);
        // Multiply-shift range reduction avoids modulo bias for power-of-two
        // and non-power-of-two ranges alike.
        (((h as u128) * (self.range as u128)) >> 64) as u32
    }

    /// Hash raw bytes (used by baseline systems hashing flow keys).
    pub fn hash_bytes(&self, bytes: &[u8]) -> u32 {
        let mut acc = self.seed ^ (bytes.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            acc = mix64(acc ^ u64::from_le_bytes(word));
        }
        (((acc as u128) * (self.range as u128)) >> 64) as u32
    }
}

/// A [`std::hash::Hasher`] built on [`mix64`]: deterministic across runs,
/// processes, and platforms — unlike the `RandomState` SipHash default —
/// and much cheaper on the small fixed-width keys (query ids, node ids,
/// report keys) the hot paths index by.
///
/// Determinism matters beyond speed: map iteration order feeds derived
/// structures (recompiled execution plans, epoch report sets), and
/// reproducibility of whole-system runs is part of the simulator's
/// contract.
#[derive(Debug, Clone, Copy)]
pub struct Mix64Hasher {
    state: u64,
}

impl std::hash::Hasher for Mix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.state = mix64(self.state ^ u64::from_le_bytes(word) ^ chunk.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = mix64(self.state ^ i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.write_u64(i as u64);
        self.write_u64((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`Mix64Hasher`]; every build starts from
/// the same state, so equal keys hash equally in every map and every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildMix64;

impl std::hash::BuildHasher for BuildMix64 {
    type Hasher = Mix64Hasher;

    #[inline]
    fn build_hasher(&self) -> Mix64Hasher {
        Mix64Hasher { state: 0x9E37_79B9_7F4A_7C15 }
    }
}

/// A `HashMap` keyed by the deterministic [`Mix64Hasher`] — the hot-path
/// replacement for SipHash maps. Construct with `FastMap::default()`.
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildMix64>;

/// The companion `HashSet`. Construct with `FastSet::default()`.
pub type FastSet<T> = std::collections::HashSet<T, BuildMix64>;

/// SplitMix64 finalizer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix a 128-bit key with a seed into 64 bits.
#[inline]
pub fn mix128(key: u128, seed: u64) -> u64 {
    let lo = key as u64;
    let hi = (key >> 64) as u64;
    mix64(mix64(lo ^ seed) ^ hi.rotate_left(32) ^ seed.wrapping_mul(0xA24B_AED4_963E_E407))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_stay_in_range() {
        for range in [1u32, 2, 3, 255, 256, 4096, 1 << 20] {
            let h = HashFn::new(7, range);
            for k in 0..1000u128 {
                assert!(h.hash(k * 0x1234_5678_9ABC) < range);
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = HashFn::new(42, 4096);
        let b = HashFn::new(42, 4096);
        for k in 0..100u128 {
            assert_eq!(a.hash(k), b.hash(k));
        }
    }

    #[test]
    fn different_seeds_disagree() {
        let a = HashFn::new(1, 1 << 20);
        let b = HashFn::new(2, 1 << 20);
        let collisions = (0..1000u128).filter(|&k| a.hash(k) == b.hash(k)).count();
        // Independent functions over a 2^20 range should almost never agree.
        assert!(collisions < 5, "too many collisions: {collisions}");
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let h = HashFn::new(9, 16);
        let mut buckets = [0u32; 16];
        for k in 0..16_000u128 {
            buckets[h.hash(k) as usize] += 1;
        }
        for &b in &buckets {
            // Expect 1000 per bucket; allow ±25 %.
            assert!((750..1250).contains(&b), "bucket count {b} far from uniform");
        }
    }

    #[test]
    fn hash_bytes_matches_length_sensitivity() {
        let h = HashFn::new(3, 1 << 24);
        assert_ne!(h.hash_bytes(b"abc"), h.hash_bytes(b"abcd"));
        assert_eq!(h.hash_bytes(b"abc"), h.hash_bytes(b"abc"));
    }

    #[test]
    #[should_panic(expected = "range must be >= 1")]
    fn zero_range_panics() {
        let _ = HashFn::new(0, 0);
    }

    #[test]
    fn fast_map_is_deterministic_and_order_stable() {
        let build = |keys: &[u64]| {
            let mut m: FastMap<u64, usize> = FastMap::default();
            for (i, &k) in keys.iter().enumerate() {
                m.insert(k, i);
            }
            m.keys().copied().collect::<Vec<u64>>()
        };
        let keys: Vec<u64> = (0..200).map(|i| i * 7 + 3).collect();
        // Same insertion sequence → same iteration order, every time.
        assert_eq!(build(&keys), build(&keys));
        let mut set: FastSet<u64> = FastSet::default();
        assert!(set.insert(42));
        assert!(!set.insert(42));
        assert!(set.contains(&42));
    }

    #[test]
    fn mix64_hasher_separates_nearby_keys() {
        use std::hash::{BuildHasher, Hasher};
        let hash_one = |k: u64| BuildMix64.hash_one(k);
        let hashes: std::collections::HashSet<u64> = (0..10_000u64).map(hash_one).collect();
        assert_eq!(hashes.len(), 10_000, "sequential keys must not collide");
        // Byte-stream writes are length-sensitive.
        let mut a = BuildMix64.build_hasher();
        a.write(b"ab");
        let mut b = BuildMix64.build_hasher();
        b.write(b"abc");
        assert_ne!(a.finish(), b.finish());
    }
}
