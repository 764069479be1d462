//! A cheap, deterministic hasher for maps keyed by simulated addresses.
//!
//! The simulator's hot maps (guest pages, the ADT cache index) are keyed by
//! addresses and page numbers the program itself computes, so they need
//! neither SipHash's resistance to crafted collisions nor its per-process
//! random seed. One multiply is enough: Fibonacci hashing multiplies the key
//! by 2^64/φ, and folding the 128-bit product's high half onto its low half
//! makes every hash bit, including the low bits the table takes its bucket
//! index from, depend on every key bit. Nothing may depend on the iteration
//! order of these maps.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, rounded to odd: consecutive keys land far apart.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative hasher for `u64` address keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * u128::from(FIB);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap` keyed by a simulated address or page number.
pub type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashing_is_deterministic_and_spreads_neighbours() {
        let build = BuildHasherDefault::<AddrHasher>::default();
        assert_eq!(build.hash_one(7u64), build.hash_one(7u64));
        // Neighbouring pages, and pages that differ only in high bits
        // (regions far apart), land in distinct low (bucket) bits.
        for stride in [1u64, 1 << 20, 1 << 40, 1 << 57] {
            let buckets: std::collections::BTreeSet<u64> = (0..64u64)
                .map(|p| build.hash_one(p * stride) & 63)
                .collect();
            assert!(
                buckets.len() > 32,
                "stride {stride}: {} buckets",
                buckets.len()
            );
        }
    }
}
