//! Synthetic labeled file corpus for the Iustitia flow-nature classifier.
//!
//! The paper validates its hypotheses on a pool of real files: 24,985
//! text files (documents, manuals, logs, HTML), 52,273 binary files
//! (executables, JPG/GIF/AVI/MPG/PDF/ZIP), and 13,656 encrypted files
//! (PGP/AES/DES output). That corpus is not redistributable, so this
//! crate synthesizes files whose *class-conditional entropy profiles*
//! match the real ones — which is exactly the signal the classifier
//! consumes:
//!
//! * [`text`] — Markov/Zipf natural-language prose, HTML, log files,
//!   emails, and manuals (`h1 ≈ 0.5–0.6`, low `h2`, `h3`).
//! * [`binary`] — executables (skewed opcode distributions, zero-run
//!   padding, embedded string tables), JPEG/GIF-like images and ZIP-like
//!   archives (low-entropy headers followed by high-entropy compressed
//!   bodies), PDF-like hybrids, and AV-stream containers. Entropy sits
//!   between text and ciphertext *on average* and overlaps encrypted for
//!   the compressed formats — reproducing the binary↔encrypted confusion
//!   in Table 1.
//! * [`encrypted`] — RC4 (implemented here) and ChaCha-based keystream
//!   ciphertext (`h1 ≈ 1.0` at every width).
//! * [`compressed`] — DEFLATE-shaped streams (gzip/zlib/raw framing,
//!   stored + Huffman-coded block structure, LZ-style match repetition,
//!   trailing checksums). Entropy sits near ciphertext (`h1 ≳ 0.95`),
//!   which is exactly the compressed↔encrypted confusion HEDGE/EnCoD
//!   target — the randomness-test battery, not the entropy vector, is
//!   what separates this class.
//! * [`headers`] — application-layer headers (HTTP/SMTP/POP3/IMAP)
//!   and the signature-based detection/stripping of §4.3.
//!
//! # Example
//!
//! ```
//! use iustitia_corpus::{CorpusBuilder, FileClass};
//! use iustitia_entropy::entropy;
//!
//! let corpus = CorpusBuilder::new(7).files_per_class(5).size_range(2048, 4096).build();
//! assert_eq!(corpus.len(), 20);
//! let mean_h1 = |class: FileClass| {
//!     let files: Vec<_> = corpus.iter().filter(|f| f.class == class).collect();
//!     files.iter().map(|f| entropy(&f.data, 1)).sum::<f64>() / files.len() as f64
//! };
//! // Hypothesis 1: text < binary < encrypted.
//! assert!(mean_h1(FileClass::Text) < mean_h1(FileClass::Binary));
//! assert!(mean_h1(FileClass::Binary) < mean_h1(FileClass::Encrypted));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout, clippy::print_stderr)
)]

pub mod binary;
pub mod compressed;
pub mod encrypted;
pub mod headers;
pub mod text;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use encrypted::Rc4;
pub use headers::{
    scan_application_header, strip_application_header, AppProtocol, HeaderGenerator, HeaderScan,
};

/// The flow/file natures Iustitia distinguishes.
///
/// The numeric value is the class index used by datasets and confusion
/// matrices throughout the workspace (`Text = 0`, `Binary = 1`,
/// `Encrypted = 2`, `Compressed = 3`). The first three match the
/// paper's 3-class scheme; `Compressed` is the HEDGE/EnCoD-motivated
/// fourth class, appended last so the historical indices stay stable on
/// the wire and in saved models.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum FileClass {
    /// Natural-language content: documents, HTML, logs, chat, email.
    Text,
    /// Machine content: executables, images, audio/video, archives.
    Binary,
    /// Ciphertext: SSL records, encrypted files.
    Encrypted,
    /// Compressed streams: DEFLATE-family output (gzip/zlib/raw).
    Compressed,
}

impl FileClass {
    /// All classes in index order.
    pub const ALL: [FileClass; 4] =
        [FileClass::Text, FileClass::Binary, FileClass::Encrypted, FileClass::Compressed];

    /// The class index (`Text = 0`, `Binary = 1`, `Encrypted = 2`,
    /// `Compressed = 3`).
    pub fn index(self) -> usize {
        match self {
            FileClass::Text => 0,
            FileClass::Binary => 1,
            FileClass::Encrypted => 2,
            FileClass::Compressed => 3,
        }
    }

    /// The class for an index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= FileClass::ALL.len()`.
    pub fn from_index(index: usize) -> FileClass {
        // lint: allow(L008) — documented panic contract; classifier labels are < ALL.len() by training invariant
        Self::ALL[index]
    }

    /// Class name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            FileClass::Text => "text",
            FileClass::Binary => "binary",
            FileClass::Encrypted => "encrypted",
            FileClass::Compressed => "compressed",
        }
    }

    /// Class names in index order.
    pub fn names() -> Vec<String> {
        Self::ALL.iter().map(|c| c.name().to_string()).collect()
    }
}

impl std::fmt::Display for FileClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One synthesized file with its ground-truth class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledFile {
    /// Ground-truth nature.
    pub class: FileClass,
    /// File contents.
    pub data: Vec<u8>,
}

/// Generates one file of the given class and approximate size.
///
/// The concrete sub-kind (prose vs HTML vs log; executable vs image vs
/// archive; RC4 vs ChaCha) is drawn at random, mirroring the mixed
/// composition of the paper's pool.
pub fn generate_file(class: FileClass, size: usize, rng: &mut StdRng) -> Vec<u8> {
    match class {
        FileClass::Text => text::generate(size, rng),
        FileClass::Binary => binary::generate(size, rng),
        FileClass::Encrypted => encrypted::generate(size, rng),
        FileClass::Compressed => compressed::generate(size, rng),
    }
}

/// Builder for a balanced synthetic corpus.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct CorpusBuilder {
    seed: u64,
    files_per_class: usize,
    min_size: usize,
    max_size: usize,
}

impl CorpusBuilder {
    /// Creates a builder with the given RNG seed
    /// (default: 100 files per class of 1–64 KiB).
    pub fn new(seed: u64) -> Self {
        CorpusBuilder { seed, files_per_class: 100, min_size: 1024, max_size: 65536 }
    }

    /// Sets the number of files generated for each class.
    pub fn files_per_class(mut self, n: usize) -> Self {
        self.files_per_class = n;
        self
    }

    /// Sets the (inclusive) file size range in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0` or `min > max`.
    pub fn size_range(mut self, min: usize, max: usize) -> Self {
        assert!(min > 0 && min <= max, "invalid size range {min}..={max}");
        self.min_size = min;
        self.max_size = max;
        self
    }

    /// Generates the corpus: `FileClass::ALL.len() × files_per_class`
    /// labeled files.
    ///
    /// Sizes are drawn log-uniformly from the configured range, matching
    /// the heavy-tailed size mix of real file pools.
    pub fn build(&self) -> Vec<LabeledFile> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(FileClass::ALL.len() * self.files_per_class);
        for class in FileClass::ALL {
            for _ in 0..self.files_per_class {
                let size = if self.min_size == self.max_size {
                    self.min_size
                } else {
                    let lo = (self.min_size as f64).ln();
                    let hi = (self.max_size as f64).ln();
                    rng.gen_range(lo..hi).exp().round() as usize
                };
                out.push(LabeledFile { class, data: generate_file(class, size.max(1), &mut rng) });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iustitia_entropy::entropy;

    #[test]
    fn class_index_round_trip_is_exhaustive() {
        // Exhaustive both ways: every variant round-trips through its
        // index, every valid index round-trips through its variant, and
        // names() stays aligned with index order. Adding a class must
        // not silently desynchronize dataset labels from verdict names.
        assert_eq!(FileClass::ALL.len(), 4);
        for (i, class) in FileClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i, "ALL order must match index()");
            assert_eq!(FileClass::from_index(class.index()), *class);
            assert_eq!(FileClass::from_index(i).index(), i);
            assert_eq!(FileClass::names()[i], class.name());
            assert_eq!(class.to_string(), class.name());
        }
        assert_eq!(FileClass::names(), vec!["text", "binary", "encrypted", "compressed"]);
        assert_eq!(FileClass::names().len(), FileClass::ALL.len());
        // Historical 3-class indices are frozen (wire/model compat).
        assert_eq!(FileClass::Text.index(), 0);
        assert_eq!(FileClass::Binary.index(), 1);
        assert_eq!(FileClass::Encrypted.index(), 2);
        assert_eq!(FileClass::Compressed.index(), 3);
    }

    #[test]
    #[should_panic]
    fn from_index_rejects_out_of_range() {
        FileClass::from_index(FileClass::ALL.len());
    }

    #[test]
    fn builder_produces_balanced_corpus() {
        let corpus = CorpusBuilder::new(1).files_per_class(8).size_range(512, 2048).build();
        assert_eq!(corpus.len(), 32);
        for class in FileClass::ALL {
            let n = corpus.iter().filter(|f| f.class == class).count();
            assert_eq!(n, 8);
        }
        for f in &corpus {
            assert!(f.data.len() >= 256, "file unexpectedly tiny: {}", f.data.len());
        }
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let a = CorpusBuilder::new(99).files_per_class(3).size_range(512, 1024).build();
        let b = CorpusBuilder::new(99).files_per_class(3).size_range(512, 1024).build();
        assert_eq!(a, b);
        let c = CorpusBuilder::new(98).files_per_class(3).size_range(512, 1024).build();
        assert_ne!(a, c);
    }

    #[test]
    fn entropy_ordering_hypothesis_holds_in_the_mean() {
        let corpus = CorpusBuilder::new(42).files_per_class(30).size_range(4096, 16384).build();
        let mean_h1 = |class: FileClass| {
            let files: Vec<_> = corpus.iter().filter(|f| f.class == class).collect();
            files.iter().map(|f| entropy(&f.data, 1)).sum::<f64>() / files.len() as f64
        };
        let (t, b, e) =
            (mean_h1(FileClass::Text), mean_h1(FileClass::Binary), mean_h1(FileClass::Encrypted));
        assert!(t < b && b < e, "t={t:.3} b={b:.3} e={e:.3}");
        assert!(t > 0.3 && t < 0.75, "text h1 out of plausible band: {t}");
        assert!(e > 0.9, "ciphertext h1 should be near 1: {e}");
        // Compressed must land in the near-ciphertext band — high
        // enough that the entropy vector alone confuses it with
        // encrypted (the motivation for the randomness battery).
        let c = mean_h1(FileClass::Compressed);
        assert!(c > 0.85, "compressed h1 should be near ciphertext: {c}");
    }

    #[test]
    fn binary_overlaps_encrypted_sometimes() {
        // The compressed binary sub-kinds must reach near-ciphertext
        // entropy — that's what produces the paper's binary→encrypted
        // misclassification band (~12%).
        let corpus = CorpusBuilder::new(7).files_per_class(40).size_range(8192, 16384).build();
        let high_entropy_binaries = corpus
            .iter()
            .filter(|f| f.class == FileClass::Binary)
            .filter(|f| entropy(&f.data, 1) > 0.9)
            .count();
        assert!(high_entropy_binaries >= 3, "got {high_entropy_binaries}");
    }

    #[test]
    #[should_panic(expected = "invalid size range")]
    fn bad_size_range_panics() {
        CorpusBuilder::new(0).size_range(10, 5);
    }
}
