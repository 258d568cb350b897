//! A fast, deterministic hasher for the engine's hot path.
//!
//! Every remote operation does a map operation or two on its node's CCB
//! table, and under a fault plan every wire message is checksummed
//! (`engine::reliable::wire_checksum` is `WireMsg`'s derived `Hash` run
//! through this hasher); the standard SipHash hasher is a measurable
//! fraction of that cost. This is the multiply-xor hash used by the Rust
//! compiler's internal tables: not DoS-resistant, which is fine for keys
//! and messages the simulation generates itself, and fully
//! deterministic, so map behaviour is identical on every run.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher (FxHash).
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn word(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed by [`FxHasher`].
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spread() {
        let mut m: FxHashMap<(usize, u64), u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert((i as usize % 7, i), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(3, 3)], 3);
        let mut h1 = FxHasher::default();
        let mut h2 = FxHasher::default();
        h1.write(b"hello world");
        h2.write(b"hello world");
        assert_eq!(h1.finish(), h2.finish());
        assert_ne!(h1.finish(), 0);
    }
}
