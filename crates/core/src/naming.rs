//! The chunk / encoded-block / CAT naming convention.
//!
//! PeerStripe names every stored object after the file it belongs to so that no
//! mapping tables are needed (Section 4.2 of the paper):
//!
//! * chunk `i` of file `F` is named `F_i`,
//! * encoded block `j` of chunk `i` is named `F_i_j`,
//! * the chunk-allocation table of `F` is named `F.CAT`.
//!
//! The object name is hashed into the overlay key that decides the storage node,
//! so two properties matter: names must be deterministic (the reader recomputes
//! them) and distinct blocks must get distinct names (so they land on different
//! nodes with high probability).

use peerstripe_overlay::{Id, IdHasher};
use std::fmt;

/// A parsed PeerStripe object name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ObjectName {
    /// A whole chunk (used when no erasure coding is configured).
    Chunk {
        /// File the chunk belongs to.
        file: String,
        /// Zero-based chunk number.
        chunk: u32,
    },
    /// One erasure-coded block of a chunk.
    Block {
        /// File the block belongs to.
        file: String,
        /// Zero-based chunk number.
        chunk: u32,
        /// Erasure-coded block number within the chunk (the paper's `ECB`).
        ecb: u32,
    },
    /// The chunk-allocation table of a file.
    Cat {
        /// The file the CAT describes.
        file: String,
    },
    /// A whole file stored as a single object (PAST-style placement); the salt
    /// counts the retry attempts (PAST rehashes the name with a new salt).
    WholeFile {
        /// File name.
        file: String,
        /// Retry salt (0 for the first attempt).
        salt: u32,
    },
}

impl ObjectName {
    /// Create a chunk name.
    pub fn chunk(file: impl Into<String>, chunk: u32) -> Self {
        ObjectName::Chunk {
            file: file.into(),
            chunk,
        }
    }

    /// Create an encoded-block name.
    pub fn block(file: impl Into<String>, chunk: u32, ecb: u32) -> Self {
        ObjectName::Block {
            file: file.into(),
            chunk,
            ecb,
        }
    }

    /// Create a CAT name.
    pub fn cat(file: impl Into<String>) -> Self {
        ObjectName::Cat { file: file.into() }
    }

    /// Create a whole-file name with a retry salt.
    pub fn whole_file(file: impl Into<String>, salt: u32) -> Self {
        ObjectName::WholeFile {
            file: file.into(),
            salt,
        }
    }

    /// Render the canonical textual form (`file_chunk`, `file_chunk_ecb`,
    /// `file.CAT`, `file#salt`).
    pub fn render(&self) -> String {
        match self {
            ObjectName::Chunk { file, chunk } => format!("{file}_{chunk}"),
            ObjectName::Block { file, chunk, ecb } => format!("{file}_{chunk}_{ecb}"),
            ObjectName::Cat { file } => format!("{file}.CAT"),
            ObjectName::WholeFile { file, salt } => format!("{file}#{salt}"),
        }
    }

    /// Parse a canonical textual form produced by [`ObjectName::render`].
    ///
    /// Parsing is conservative: a trailing `_<number>` suffix is interpreted as
    /// chunk/block numbering only if the digits parse; otherwise the whole string
    /// is rejected (file names used with PeerStripe must not end in `_<digits>`
    /// themselves, a documented constraint of the naming convention).
    pub fn parse(s: &str) -> Option<ObjectName> {
        if let Some(file) = s.strip_suffix(".CAT") {
            if file.is_empty() {
                return None;
            }
            return Some(ObjectName::cat(file));
        }
        if let Some((file, salt)) = s.rsplit_once('#') {
            if file.is_empty() {
                return None;
            }
            return salt
                .parse()
                .ok()
                .map(|salt| ObjectName::whole_file(file, salt));
        }
        let mut parts: Vec<&str> = s.rsplitn(3, '_').collect();
        parts.reverse();
        match parts.as_slice() {
            [file, a, b] if !file.is_empty() => {
                match (a.parse::<u32>(), b.parse::<u32>()) {
                    (Ok(chunk), Ok(ecb)) => Some(ObjectName::block(*file, chunk, ecb)),
                    _ => {
                        // `file_name_3` where `file_name` contains an underscore:
                        // re-join and try the chunk form.
                        let joined = format!("{file}_{a}");
                        b.parse::<u32>()
                            .ok()
                            .map(|chunk| ObjectName::chunk(joined, chunk))
                    }
                }
            }
            [file, a] if !file.is_empty() => a
                .parse::<u32>()
                .ok()
                .map(|chunk| ObjectName::chunk(*file, chunk)),
            _ => None,
        }
    }

    /// The overlay key this object is routed by (the SHA-1 of the paper, our
    /// deterministic 128-bit hash): the hash of [`ObjectName::render`]'s
    /// form, fed to the hasher piece by piece rather than built first.
    pub fn key(&self) -> Id {
        let mut hasher = IdHasher::default();
        match self {
            ObjectName::Chunk { file, chunk } => {
                hasher.write(file.as_bytes());
                write_number(&mut hasher, b"_", *chunk);
            }
            ObjectName::Block { file, chunk, ecb } => {
                hasher.write(file.as_bytes());
                write_number(&mut hasher, b"_", *chunk);
                write_number(&mut hasher, b"_", *ecb);
            }
            ObjectName::Cat { file } => {
                hasher.write(file.as_bytes());
                hasher.write(b".CAT");
            }
            ObjectName::WholeFile { file, salt } => {
                hasher.write(file.as_bytes());
                write_number(&mut hasher, b"#", *salt);
            }
        }
        hasher.finish()
    }
}

/// Feed `separator`, then `n` in decimal as `format!` writes it.
fn write_number(hasher: &mut IdHasher, separator: &[u8], mut n: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    hasher.write(separator);
    hasher.write(&digits[at..]);
}

impl fmt::Display for ObjectName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_matches_paper_examples() {
        // "testImageFile_2 represents the second chunk of the file testImageFile"
        assert_eq!(
            ObjectName::chunk("testImageFile", 2).render(),
            "testImageFile_2"
        );
        // "The encoded blocks for the chunk X are named filename_X_ECB"
        assert_eq!(
            ObjectName::block("myTestFile", 0, 2).render(),
            "myTestFile_0_2"
        );
        // "stores it in the p2p storage under the name filename.CAT"
        assert_eq!(ObjectName::cat("myTestFile").render(), "myTestFile.CAT");
        assert_eq!(format!("{}", ObjectName::chunk("f", 1)), "f_1");
    }

    #[test]
    fn parse_round_trips() {
        let names = vec![
            ObjectName::chunk("weather-2020", 0),
            ObjectName::chunk("weather-2020", 17),
            ObjectName::block("mri-scan", 3, 12),
            ObjectName::cat("mri-scan"),
            ObjectName::whole_file("genome.dat", 4),
        ];
        for n in names {
            assert_eq!(ObjectName::parse(&n.render()), Some(n));
        }
    }

    #[test]
    fn parse_handles_underscores_in_file_names() {
        let n = ObjectName::chunk("my_test_file", 3);
        assert_eq!(ObjectName::parse(&n.render()), Some(n));
        let b = ObjectName::block("my_file", 3, 7);
        assert_eq!(ObjectName::parse(&b.render()), Some(b));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(ObjectName::parse(""), None);
        assert_eq!(ObjectName::parse(".CAT"), None);
        assert_eq!(ObjectName::parse("plainname"), None);
        assert_eq!(ObjectName::parse("file_abc"), None);
        assert_eq!(ObjectName::parse("#3"), None);
    }

    #[test]
    fn distinct_blocks_get_distinct_keys() {
        let mut keys = std::collections::BTreeSet::new();
        for chunk in 0..10 {
            for ecb in 0..10 {
                keys.insert(ObjectName::block("bigfile", chunk, ecb).key());
            }
        }
        assert_eq!(keys.len(), 100, "block keys must not collide");
    }

    #[test]
    fn a_key_is_the_hash_of_the_rendered_name() {
        // File names either side of the hasher's 8-byte words, and one whose
        // characters take several bytes each.
        let files = [
            "",
            "abcdefg",
            "abcdefgh",
            "abcdefghi",
            "0123456789abcdef",
            "données-λ",
        ];
        for file in files {
            for n in [0, 9, 10, u32::MAX] {
                for name in [
                    ObjectName::chunk(file, n),
                    ObjectName::block(file, n, 0),
                    ObjectName::block(file, 10, n),
                    ObjectName::cat(file),
                    ObjectName::whole_file(file, n),
                ] {
                    assert_eq!(name.key(), Id::hash(&name.render()), "{name:?}");
                }
            }
        }
    }

    #[test]
    fn whole_file_salts_change_key() {
        let k0 = ObjectName::whole_file("f", 0).key();
        let k1 = ObjectName::whole_file("f", 1).key();
        assert_ne!(k0, k1, "PAST retries must rehash to a different node");
    }
}
