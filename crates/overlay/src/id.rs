//! Node and object identifiers in the structured overlay.
//!
//! Pastry (and PAST/CFS on top of it) assigns every node a uniformly distributed
//! identifier and every stored object a key in the same circular space; a key is
//! mapped to the live node whose identifier is *numerically closest* to it.
//! The paper derives keys with SHA-1 (160 bits).  For the simulator we use a
//! 128-bit space with a non-cryptographic but well-mixed hash: the experiments
//! only rely on uniform distribution and collision-freeness of the mapping, not
//! on cryptographic strength, and 128 bits keeps circular arithmetic on native
//! integers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 128-bit identifier in the circular overlay id space.
///
/// Used both for node identifiers (`nodeId`) and object keys (chunk names,
/// encoded-block names, CAT names).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Id(pub u128);

impl Id {
    /// Hash an arbitrary name into the id space.
    ///
    /// This stands in for the SHA-1 of the paper: a double-width
    /// multiply-xorshift construction (two independent 64-bit lanes seeded with
    /// distinct offsets) giving uniform, deterministic 128-bit keys.
    pub fn hash(name: &str) -> Id {
        Id::hash_bytes(name.as_bytes())
    }

    /// Hash arbitrary bytes into the id space.
    pub fn hash_bytes(data: &[u8]) -> Id {
        let mut hasher = IdHasher::default();
        hasher.write(data);
        hasher.finish()
    }

    /// Draw a uniformly random identifier (used for node id assignment).
    pub fn random(rng: &mut peerstripe_sim::DetRng) -> Id {
        Id(((rng.next_u64() as u128) << 64) | rng.next_u64() as u128)
    }

    /// Fold the identifier into a 64-bit RNG seed, for deterministic
    /// per-object draws keyed on an object's id (both repair re-placement
    /// paths derive their target-selection stream this way).
    #[inline]
    pub fn seed(self) -> u64 {
        (self.0 as u64) ^ ((self.0 >> 64) as u64)
    }

    /// Circular distance between two identifiers (the shorter way around the ring).
    #[inline]
    pub fn distance(self, other: Id) -> u128 {
        let d = self.0.wrapping_sub(other.0);
        let e = other.0.wrapping_sub(self.0);
        d.min(e)
    }
}

/// [`Id::hash_bytes`] fed in pieces: the bytes of every [`IdHasher::write`],
/// taken together, hash to the id `Id::hash_bytes` gives their concatenation.
/// A caller that knows a name's parts hashes them without building the name.
///
/// The input is read as little-endian 8-byte words, the last one zero-padded,
/// each mixed into two 64-bit lanes; the total length is mixed in last.
#[derive(Debug, Clone)]
pub struct IdHasher {
    h1: u64,
    h2: u64,
    /// The bytes of the word being filled; the first `len % 8` are written.
    word: [u8; 8],
    len: u64,
}

impl Default for IdHasher {
    fn default() -> Self {
        IdHasher {
            h1: 0x9E37_79B9_7F4A_7C15,
            h2: 0xC2B2_AE3D_27D4_EB4F,
            word: [0; 8],
            len: 0,
        }
    }
}

impl IdHasher {
    /// Append bytes to the input.
    pub fn write(&mut self, mut bytes: &[u8]) {
        let filled = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if filled > 0 {
            let take = bytes.len().min(8 - filled);
            self.word[filled..filled + take].copy_from_slice(&bytes[..take]);
            if filled + take < 8 {
                return;
            }
            self.mix_word(self.word);
            bytes = &bytes[take..];
        }
        let (words, rest) = bytes.as_chunks::<8>();
        for &word in words {
            self.mix_word(word);
        }
        self.word[..rest.len()].copy_from_slice(rest);
    }

    /// The id of everything written.
    pub fn finish(mut self) -> Id {
        let filled = (self.len % 8) as usize;
        if filled > 0 {
            let mut last = [0u8; 8];
            last[..filled].copy_from_slice(&self.word[..filled]);
            self.mix_word(last);
        }
        let h1 = mix(self.h1 ^ self.len);
        let h2 = mix(self.h2 ^ self.len.rotate_left(32));
        Id(((h1 as u128) << 64) | h2 as u128)
    }

    fn mix_word(&mut self, word: [u8; 8]) {
        let v = u64::from_le_bytes(word);
        self.h1 = mix(self.h1 ^ v)
            .rotate_left(27)
            .wrapping_mul(0x1000_0000_01B3);
        self.h2 = mix(self.h2.wrapping_add(v)).rotate_left(31) ^ self.h1;
    }
}

#[inline]
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({:032x})", self.0)
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_sim::DetRng;

    /// Number of bits in an identifier.
    const ID_BITS: u32 = u128::BITS;

    #[test]
    fn hash_is_deterministic_and_spread() {
        assert_eq!(Id::hash("file_1_0"), Id::hash("file_1_0"));
        assert_ne!(Id::hash("file_1_0"), Id::hash("file_1_1"));
        assert_ne!(Id::hash("a"), Id::hash("b"));
        // Uniformity smoke test: the top four bits should take many values
        // across keys.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..200 {
            seen.insert(Id::hash(&format!("chunk_{i}")).0 >> (ID_BITS - 4));
        }
        assert!(
            seen.len() >= 14,
            "top bits should be well spread, got {}",
            seen.len()
        );
    }

    #[test]
    fn ids_are_pinned_and_streaming_changes_none() {
        // Every stored object's key derives from these; a change moves every
        // placement and golden.
        let pinned = [
            ("", 0x9ca066f1a4ab2eea0ff2e69699c4857e),
            ("a", 0xaf55306f8edb209b76109791ae322b8a),
            ("file_1_0", 0xa65818140fb85839a36c60fe8ff6756a),
            ("0123456789abcdef", 0x99683965fa81ecc8b998f72911f2cc94),
            ("données-λ_4294967295_9", 0x97108ff35b0337126d037182c9ff6381),
        ];
        for (name, id) in pinned {
            assert_eq!(Id::hash(name), Id(id), "{name:?}");
        }
        // Any split of the input into writes hashes as the whole.
        let data: Vec<u8> = (0..40u8).map(|b| b.wrapping_mul(37)).collect();
        for len in 0..data.len() {
            let whole = Id::hash_bytes(&data[..len]);
            for a in 0..=len {
                for b in a..=len {
                    let mut hasher = IdHasher::default();
                    hasher.write(&data[..a]);
                    hasher.write(&data[a..b]);
                    hasher.write(&data[b..len]);
                    assert_eq!(hasher.finish(), whole, "len {len}, split {a}/{b}");
                }
            }
        }
    }

    #[test]
    fn hash_collision_free_over_many_names() {
        let mut set = std::collections::BTreeSet::new();
        for i in 0..100_000u32 {
            set.insert(Id::hash(&format!("testImageFile_{i}_3")));
        }
        assert_eq!(set.len(), 100_000);
    }

    #[test]
    fn circular_distance_symmetry_and_wrap() {
        let a = Id(10);
        let b = Id(u128::MAX - 5);
        assert_eq!(a.distance(b), 16);
        assert_eq!(b.distance(a), 16);
        assert_eq!(a.distance(a), 0);
        assert_eq!(Id(0).distance(Id(u128::MAX / 2)), u128::MAX / 2);
    }

    #[test]
    fn random_ids_unique() {
        let mut rng = DetRng::new(5);
        let mut set = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            set.insert(Id::random(&mut rng));
        }
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn display_and_debug() {
        let id = Id(0xAB);
        assert_eq!(format!("{id}"), format!("{:032x}", 0xABu32));
        assert!(format!("{id:?}").starts_with("Id("));
    }
}
