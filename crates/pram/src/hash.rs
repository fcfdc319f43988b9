//! Fast non-cryptographic hashing.
//!
//! The paper's algorithms use hash tables as constant-time dictionaries
//! (face maps in §4, grid cells in §5.2) and hashing to spread keys for
//! semisort (§6). HashDoS resistance is irrelevant here, so we use the
//! FxHash mixing function (a multiply-and-rotate scheme originating in
//! Firefox and used by rustc) implemented from scratch.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Mix a single `u64` into a well-distributed `u64`.
///
/// This is the finalizer used throughout the crate for hashing integer keys
/// (cell coordinates, face ids, vertex ids). It is bijective, so distinct
/// keys never collide at this stage; collisions only arise from table
/// reduction.
#[inline]
pub fn hash_u64(mut x: u64) -> u64 {
    // splitmix64 finalizer: bijective, passes statistical tests, 3 multiplies.
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Combine two hashed words (for composite keys such as directed edges).
#[inline]
pub fn hash_combine(a: u64, b: u64) -> u64 {
    hash_u64(a ^ b.rotate_left(32).wrapping_mul(SEED))
}

/// An FxHash-style streaming hasher.
///
/// Drop-in replacement for the default SipHash hasher via
/// [`FxBuildHasher`]; used wherever a `HashMap`/`HashSet` appears on a hot
/// path.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The Fx mixing step alone distributes low bits poorly; run the
        // splitmix finalizer so HashMap's 7-bit control bytes stay useful.
        hash_u64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// The checksum the Delaunay and SCC stream deltas report for a `u32`
/// sequence. From FNV's 64-bit offset basis, each word's little-endian
/// bytes are xored in one at a time, each followed by a multiply by
/// `0x1_0000_0193` (2³² + 403: neither FNV prime, so this is not
/// FNV-1a); the low 53 bits are kept, which a JSON number holds exactly.
/// The golden witness log's eight Delaunay and SCC stream records pin
/// the value, so the arithmetic must not change.
pub fn checksum_u32s(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1_0000_0193);
        }
    }
    h & ((1 << 53) - 1)
}

/// `BuildHasher` for [`FxHasher`]; use as
/// `HashMap::with_hasher(FxBuildHasher::default())`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hash_u64_is_bijective_on_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(hash_u64(i)), "collision at {i}");
        }
    }

    #[test]
    fn hash_u64_spreads_low_bits() {
        // Sequential keys must not map to sequential buckets.
        let mut buckets = [0usize; 16];
        for i in 0..16_000u64 {
            buckets[(hash_u64(i) & 15) as usize] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "skewed bucket: {b}");
        }
    }

    #[test]
    fn fx_hasher_distinguishes_field_order() {
        let bh = FxBuildHasher::default();
        let h = |a: u64, b: u64| bh.hash_one((a, b));
        assert_ne!(h(1, 2), h(2, 1));
    }

    #[test]
    fn checksum_u32s_is_pinned() {
        assert_eq!(checksum_u32s([]), 5_239_054_864_098_085);
        assert_eq!(checksum_u32s([1, 2, 3]), 2_263_604_333_050_133);
    }

    #[test]
    fn hash_combine_is_order_sensitive() {
        assert_ne!(hash_combine(3, 9), hash_combine(9, 3));
    }

    #[test]
    fn fx_hashmap_basic_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * i);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&i), Some(&(i * i)));
        }
    }
}
