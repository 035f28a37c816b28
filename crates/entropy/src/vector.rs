//! Normalized entropy `h_k` and entropy vectors (Formula 1 of the paper).
//!
//! For a byte sequence of length `m` viewed as `M = m - k + 1` overlapping
//! `k`-byte grams over the alphabet `f_k` (`|f_k| = 256^k`), the paper
//! defines the normalized entropy
//!
//! ```text
//! h_k = log(M) - (1/M) · Σ_i m_ik · log(m_ik)        [base |f_k|]
//! ```
//!
//! which is Shannon entropy with logarithm base `|f_k|`, so `h_k ∈ [0, 1]`
//! ("element per symbol"): 0 when all grams are identical and 1 when all
//! `|f_k|` grams appear equally often. The *entropy vector* of a file is
//! `H_F = ⟨h_1, h_2, …⟩`; Iustitia uses (subsets of) `h_1 … h_10` as
//! classifier features.

use crate::fastmap::{c_log2_c, FRAC_BITS};
use crate::histogram::GramHistogram;
use crate::BITS_PER_BYTE;

/// Feature widths used by the paper's full entropy vector: `h_1 … h_10`.
pub const FULL_WIDTHS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// A set of feature widths (the `k` values of the `h_k` features used
/// by a classifier), e.g. the paper's `φ′_SVM = {h1, h2, h3, h5}`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FeatureWidths(Vec<usize>);

impl FeatureWidths {
    /// Creates a feature-width set.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty or contains a width outside `1..=16`.
    pub fn new(widths: impl Into<Vec<usize>>) -> Self {
        let widths = widths.into();
        assert!(!widths.is_empty(), "feature width set must be non-empty");
        for &k in &widths {
            assert!((1..=16).contains(&k), "feature width {k} outside 1..=16");
        }
        FeatureWidths(widths)
    }

    /// The paper's full feature vector `h_1 … h_10`.
    pub fn full() -> Self {
        FeatureWidths(FULL_WIDTHS.to_vec())
    }

    /// `φ′_CART = {h1, h3, h4, h5}` — the memory-friendly CART feature
    /// set chosen in §4.1.
    pub fn cart_selected() -> Self {
        FeatureWidths(vec![1, 3, 4, 5])
    }

    /// `φ′_SVM = {h1, h2, h3, h5}` — the memory-friendly SVM feature set
    /// chosen in §4.1.
    pub fn svm_selected() -> Self {
        FeatureWidths(vec![1, 2, 3, 5])
    }

    /// The widths as a slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over the widths.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().copied()
    }
}

impl From<&[usize]> for FeatureWidths {
    fn from(widths: &[usize]) -> Self {
        FeatureWidths::new(widths.to_vec())
    }
}

/// An entropy vector `⟨h_{k1}, h_{k2}, …⟩` with its feature widths.
///
/// This is the feature representation handed to the classifiers in
/// `iustitia-ml`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EntropyVector {
    widths: Vec<usize>,
    values: Vec<f64>,
}

impl EntropyVector {
    /// Computes the entropy vector of `data` for the given feature widths.
    pub fn compute(data: &[u8], widths: &FeatureWidths) -> Self {
        let values = widths.iter().map(|k| entropy(data, k)).collect();
        EntropyVector { widths: widths.as_slice().to_vec(), values }
    }

    /// Assembles a vector from already-computed per-width values
    /// (used by the incremental builder in [`crate::incremental`]).
    pub(crate) fn from_parts(widths: Vec<usize>, values: Vec<f64>) -> Self {
        debug_assert_eq!(widths.len(), values.len());
        EntropyVector { widths, values }
    }

    /// The entropy values, ordered like the feature widths.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The feature widths, ordered like the values.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector has no features.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of `h_k` if width `k` is part of this vector.
    pub fn h(&self, k: usize) -> Option<f64> {
        self.widths.iter().position(|&w| w == k).map(|i| self.values[i])
    }

    /// Consumes the vector and returns the raw feature values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }
}

/// Computes the normalized entropy `h_k` of `data` (Formula 1).
///
/// Returns 0 for inputs shorter than `k + 1` bytes (zero or one window).
/// The result is always within `[0, 1]`.
///
/// # Panics
///
/// Panics if `k` is outside `1..=16`.
///
/// # Examples
///
/// ```
/// use iustitia_entropy::entropy;
///
/// assert_eq!(entropy(&[42u8; 100], 1), 0.0); // constant → no diversity
/// let all: Vec<u8> = (0..=255u8).collect();
/// let h = entropy(&all, 1); // perfectly uniform over the whole alphabet
/// assert!((h - 1.0).abs() < 1e-12);
/// ```
pub fn entropy(data: &[u8], k: usize) -> f64 {
    let hist = GramHistogram::from_bytes(data, k);
    entropy_of_histogram(&hist)
}

/// Computes `h_k` from a pre-built histogram.
///
/// This is the exact counterpart of the streaming estimator in
/// [`crate::estimate`]; both plug `S_k = Σ mᵢ·log(mᵢ)` into Formula 1.
pub fn entropy_of_histogram(hist: &GramHistogram) -> f64 {
    (bits_per_gram(hist) / (BITS_PER_BYTE * hist.k() as f64)).clamp(0.0, 1.0)
}

/// Computes the raw Shannon entropy of the `k`-gram distribution in
/// **bits per element** (log base 2, not normalized by `|f_k|`).
///
/// Exposed because the divergence measures and several tests want the
/// un-normalized quantity.
pub fn shannon_entropy_bits(data: &[u8], k: usize) -> f64 {
    bits_per_gram(&GramHistogram::from_bytes(data, k))
}

/// `log₂M − (1/M)·Σ mᵢ·log₂mᵢ` as `(T(M) − S) / (M·2⁵²)`, with `S` the
/// histogram's fixed-point sum: the numerator is an exact integer, never
/// negative (`L` is monotone and the counts sum to at most `M`), so the
/// result is one rounding to `f64` and one division. 0 when empty.
fn bits_per_gram(hist: &GramHistogram) -> f64 {
    let windows = hist.window_count();
    if windows == 0 {
        return 0.0;
    }
    let excess = c_log2_c(windows).saturating_sub(hist.fixed_sum_m_log_m());
    // Both factors are exact, and so is their product for M < 2⁵³.
    excess as f64 / (windows as f64 * (1u64 << FRAC_BITS) as f64)
}

/// Computes the entropy vector `⟨h_k : k ∈ widths⟩` of `data`.
///
/// Convenience wrapper over [`EntropyVector::compute`] returning the raw
/// feature values.
///
/// # Panics
///
/// Panics if any width is outside `1..=16`.
pub fn entropy_vector(data: &[u8], widths: &[usize]) -> Vec<f64> {
    widths.iter().map(|&k| entropy(data, k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_data_has_zero_entropy() {
        for k in 1..=5 {
            assert_eq!(entropy(&[0xAB; 256], k), 0.0, "k={k}");
        }
    }

    #[test]
    fn empty_and_tiny_data_have_zero_entropy() {
        assert_eq!(entropy(b"", 1), 0.0);
        assert_eq!(entropy(b"x", 1), 0.0);
        assert_eq!(entropy(b"xy", 3), 0.0);
    }

    #[test]
    fn uniform_bytes_have_unit_entropy() {
        let all: Vec<u8> = (0..=255u8).collect();
        assert!((entropy(&all, 1) - 1.0).abs() < 1e-12);
        // Repeating the uniform alphabet keeps h1 ≈ 1.
        let repeated: Vec<u8> = all.iter().cycle().take(4096).copied().collect();
        assert!(entropy(&repeated, 1) > 0.999);
    }

    #[test]
    fn two_symbols_give_expected_h1() {
        // "abab..." : p(a)=p(b)=1/2 → 1 bit → normalized 1/8.
        let data: Vec<u8> = b"ab".iter().cycle().take(1000).copied().collect();
        let h = entropy(&data, 1);
        assert!((h - 1.0 / 8.0).abs() < 1e-9, "h1 = {h}");
    }

    #[test]
    fn manual_formula_check() {
        // data "aab": windows a,a,b → p=(2/3,1/3)
        // H = -(2/3)log2(2/3) - (1/3)log2(1/3) ≈ 0.9183 bits → /8
        let h = entropy(b"aab", 1);
        let expected = (-(2.0 / 3.0f64) * (2.0 / 3.0f64).log2()
            - (1.0 / 3.0f64) * (1.0 / 3.0f64).log2())
            / 8.0;
        assert!((h - expected).abs() < 1e-12);
    }

    #[test]
    fn entropy_is_bounded() {
        let mut data = Vec::new();
        for i in 0..2048u32 {
            data.push((i.wrapping_mul(2654435761) >> 13) as u8);
        }
        for k in 1..=10 {
            let h = entropy(&data, k);
            assert!((0.0..=1.0).contains(&h), "k={k} h={h}");
        }
    }

    #[test]
    fn higher_k_lowers_normalized_entropy_of_finite_random_data() {
        // For b-byte random data, h_k ≤ log2(b)/(8k): small, finite samples
        // can never fill alphabet f_k for k ≥ 2, so normalized entropy drops
        // with k. This is why Fig. 2(a)'s h3 axis tops out well below 1.
        let data: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(101) % 251) as u8).collect();
        let h1 = entropy(&data, 1);
        let h3 = entropy(&data, 3);
        let h5 = entropy(&data, 5);
        assert!(h1 > h3 && h3 > h5, "h1={h1} h3={h3} h5={h5}");
    }

    #[test]
    fn text_binary_encrypted_ordering_on_toy_data() {
        // Hypothesis 1 on toy inputs: text < encrypted on h1.
        let text: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .cycle()
            .take(2048)
            .copied()
            .collect();
        // xorshift pseudo-random bytes stand in for ciphertext
        let mut x = 0x9E3779B97F4A7C15u64;
        let enc: Vec<u8> = (0..2048)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        assert!(entropy(&text, 1) < entropy(&enc, 1));
        assert!(entropy(&text, 2) < entropy(&enc, 2));
    }

    #[test]
    fn vector_accessors() {
        let w = FeatureWidths::new(vec![1, 3, 5]);
        let v = EntropyVector::compute(b"hello world, hello entropy", &w);
        assert_eq!(v.len(), 3);
        assert_eq!(v.widths(), &[1, 3, 5]);
        assert!(v.h(3).is_some());
        assert!(v.h(2).is_none());
        assert_eq!(v.values().len(), 3);
        assert!(!v.is_empty());
    }

    #[test]
    fn preset_feature_sets_match_paper() {
        assert_eq!(FeatureWidths::cart_selected().as_slice(), &[1, 3, 4, 5]);
        assert_eq!(FeatureWidths::svm_selected().as_slice(), &[1, 2, 3, 5]);
        assert_eq!(FeatureWidths::full().len(), 10);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_widths_panic() {
        FeatureWidths::new(Vec::new());
    }

    #[test]
    fn shannon_bits_of_uniform_alphabet() {
        let all: Vec<u8> = (0..=255u8).collect();
        assert!((shannon_entropy_bits(&all, 1) - 8.0).abs() < 1e-12);
    }
}
