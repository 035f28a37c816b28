//! Incremental HEDGE-style randomness-test battery.
//!
//! The entropy vector cannot separate compressed streams from
//! ciphertext: both sit at `h1 ≳ 0.95` (HEDGE, Casino et al.; EnCoD,
//! De Gaspari et al.). What *does* separate them is that DEFLATE-family
//! output fails classical randomness tests that keystream output
//! passes. This module computes four such statistics per flow,
//! streamed per-packet alongside the entropy vector:
//!
//! * **Chi-square distance** of the byte distribution from uniform —
//!   Huffman-coded output carries residual bit bias that barely moves
//!   `h1` but blows up `χ²` (a `p(1) = 0.55` bit source has `χ²`
//!   noncentrality ≈ 170 at 2 KiB while `h1 ≈ 0.99`).
//! * **Runs test** on the bit stream (MSB-first within each byte) —
//!   back-reference repetition correlates adjacent bits, dragging the
//!   observed run count away from its conditional expectation.
//! * **Byte-value autocorrelation** at lags 1, 2, and 4 — LZ match
//!   copies repeat short patterns, which ciphertext never does.
//! * **Longest byte run** — literal runs survive compression framing;
//!   a uniform stream essentially never repeats a byte 3+ times in a
//!   few KiB.
//!
//! # Incremental ≡ one-shot, bit-identical
//!
//! The battery follows the kernel's contract
//! ([`IncrementalVector`](crate::IncrementalVector)): `update` folds
//! each chunk into *integer* accumulators only (byte counts, bit/run
//! tallies, lag-pair moment sums, a rolling 4-byte window carried
//! across chunks), and [`finish`](RandomnessBattery::finish) derives
//! every float from those integers in one fixed sequence of operations.
//! Equal inputs give equal integer states regardless of chunking, and
//! equal integer states give bit-identical floats — so chunked ≡
//! one-shot holds by construction, with no per-chunk carry buffer.
//!
//! # Pooling
//!
//! The state is a fixed-size struct with **no heap storage at all**, so
//! [`reset`](RandomnessBattery::reset) trivially keeps (the absence of)
//! allocations and the pipeline's zero-steady-state-allocation
//! guarantee extends through the battery unchanged.

/// Autocorrelation lags, in feature order.
const LAGS: [usize; 3] = [1, 2, 4];

/// The largest of [`LAGS`] (which ascend): once this many bytes are
/// fed, every lag has a partner for every further byte.
const MAX_LAG: u64 = LAGS[LAGS.len() - 1] as u64;

/// Number of features the battery emits, in [`finish`] order:
/// chi-square, bit-runs, autocorrelation at lags 1/2/4, longest run.
///
/// [`finish`]: RandomnessBattery::finish
pub const BATTERY_FEATURES: usize = 6;

/// Integer moment sums for one autocorrelation lag: the pair count and
/// the five sums a Pearson correlation needs (`Σa`, `Σb`, `Σa²`, `Σb²`,
/// `Σab` over pairs `(x[i−lag], x[i])`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LagAcc {
    pairs: u64,
    sum_a: u64,
    sum_b: u64,
    sum_aa: u64,
    sum_bb: u64,
    sum_ab: u64,
}

/// Streaming randomness-test battery, fed one chunk at a time.
///
/// # Examples
///
/// ```
/// use iustitia_entropy::RandomnessBattery;
///
/// let data = b"chunked feeding is bit-identical to one-shot feeding";
/// let mut inc = RandomnessBattery::new();
/// for chunk in data.chunks(7) {
///     inc.update(chunk);
/// }
/// let mut one_shot = RandomnessBattery::new();
/// one_shot.update(data);
/// assert_eq!(inc.finish(), one_shot.finish());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomnessBattery {
    /// Byte-value histogram for the chi-square statistic.
    counts: [u64; 256],
    /// Total bytes fed.
    total: u64,
    /// Total 1-bits fed.
    bit_ones: u64,
    /// Bit-level runs so far (1 after the first byte's first bit).
    bit_runs: u64,
    /// Last bit fed (LSB of the previous byte), valid when `total > 0`.
    prev_bit: u8,
    /// Rolling window of the last ≤4 bytes (most recent in the low
    /// byte), carried across chunks so lag partners span packets.
    window: u32,
    /// Per-lag Pearson accumulators, parallel to [`LAGS`].
    lags: [LagAcc; LAGS.len()],
    /// Current run length of equal bytes.
    cur_run: u64,
    /// Longest run of equal bytes seen.
    max_run: u64,
}

impl Default for RandomnessBattery {
    fn default() -> Self {
        Self::new()
    }
}

impl RandomnessBattery {
    /// Creates an empty battery.
    pub fn new() -> Self {
        RandomnessBattery {
            counts: [0; 256],
            total: 0,
            bit_ones: 0,
            bit_runs: 0,
            prev_bit: 0,
            window: 0,
            lags: [LagAcc::default(); LAGS.len()],
            cur_run: 0,
            max_run: 0,
        }
    }

    /// Folds one chunk of payload into the integer accumulators.
    ///
    /// The first bytes of a flow go through [`step`](Self::step), which
    /// asks per byte whether each lag has a partner yet. Once
    /// [`MAX_LAG`] bytes are in, every answer is yes for good, and the
    /// rest of the chunk runs a loop without those questions: running
    /// values in locals, and the sums that depend only on the byte
    /// fed (`pairs`, `Σb`, `Σb²` — the same for every lag) taken once
    /// per chunk.
    pub fn update(&mut self, chunk: &[u8]) {
        let warm = MAX_LAG.saturating_sub(self.total) as usize;
        let (head, body) = (chunk.get(..warm).unwrap_or(chunk), chunk.get(warm..).unwrap_or(&[]));
        for &b in head {
            self.step(b);
        }
        let (mut window, mut prev_bit) = (self.window, self.prev_bit);
        let (mut cur_run, mut max_run) = (self.cur_run, self.max_run);
        let (mut bit_ones, mut bit_runs) = (0u64, 0u64);
        let (mut sum_b, mut sum_bb) = (0u64, 0u64);
        // Per lag: Σa, Σa², Σab over this chunk's pairs.
        let mut partner_sums = [[0u64; 3]; LAGS.len()];
        for &b in body {
            let bv = u64::from(b);
            if let Some(count) = self.counts.get_mut(usize::from(b)) {
                *count += 1;
            }
            bit_ones += u64::from(b.count_ones());
            bit_runs += u64::from(((b ^ (b >> 1)) & 0x7F).count_ones())
                + u64::from((prev_bit ^ (b >> 7)) & 1);
            prev_bit = b & 1;
            sum_b += bv;
            sum_bb += bv * bv;
            for ([sum_a, sum_aa, sum_ab], &lag) in partner_sums.iter_mut().zip(&LAGS) {
                let a = u64::from((window >> (8 * (lag - 1))) & 0xFF);
                *sum_a += a;
                *sum_aa += a * a;
                *sum_ab += a * bv;
            }
            cur_run = if window as u8 == b { cur_run + 1 } else { 1 };
            max_run = max_run.max(cur_run);
            window = (window << 8) | u32::from(b);
        }
        let fed = body.len() as u64;
        for (acc, [sum_a, sum_aa, sum_ab]) in self.lags.iter_mut().zip(partner_sums) {
            acc.pairs += fed;
            acc.sum_a += sum_a;
            acc.sum_b += sum_b;
            acc.sum_aa += sum_aa;
            acc.sum_bb += sum_bb;
            acc.sum_ab += sum_ab;
        }
        (self.window, self.prev_bit) = (window, prev_bit);
        (self.cur_run, self.max_run) = (cur_run, max_run);
        self.bit_ones += bit_ones;
        self.bit_runs += bit_runs;
        self.total += fed;
    }

    /// Folds one byte in, for any state — including the first
    /// [`MAX_LAG`] bytes of a flow, when the stream has no previous
    /// bit and some lags no partner yet.
    fn step(&mut self, b: u8) {
        let bv = u64::from(b);
        if let Some(count) = self.counts.get_mut(usize::from(b)) {
            *count += 1;
        }

        // Bit stream, MSB-first within each byte: runs grow by one
        // per adjacent unequal bit pair, plus one to open the
        // stream. `b ^ (b >> 1)` marks the 7 within-byte
        // adjacencies; the byte boundary compares the previous
        // byte's LSB with this byte's MSB.
        self.bit_ones += u64::from(b.count_ones());
        let within = u64::from(((b ^ (b >> 1)) & 0x7F).count_ones());
        if self.total == 0 {
            self.bit_runs = 1 + within;
        } else {
            self.bit_runs += within + u64::from((self.prev_bit ^ (b >> 7)) & 1);
        }
        self.prev_bit = b & 1;

        // Autocorrelation: the partner for lag L is the byte fed L
        // positions earlier, read from the rolling window *before*
        // this byte is pushed in.
        for (acc, &lag) in self.lags.iter_mut().zip(&LAGS) {
            if self.total >= lag as u64 {
                let a = u64::from((self.window >> (8 * (lag - 1))) & 0xFF);
                acc.pairs += 1;
                acc.sum_a += a;
                acc.sum_b += bv;
                acc.sum_aa += a * a;
                acc.sum_bb += bv * bv;
                acc.sum_ab += a * bv;
            }
        }

        // Longest run of equal bytes: the window's low byte still
        // holds the previous byte.
        if self.total > 0 && self.window as u8 == b {
            self.cur_run += 1;
        } else {
            self.cur_run = 1;
        }
        self.max_run = self.max_run.max(self.cur_run);
        self.window = (self.window << 8) | u32::from(b);

        self.total += 1;
    }

    /// Total bytes fed so far.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Rewinds to the empty state. The struct owns no heap storage, so
    /// this trivially preserves the zero-allocation pooling contract:
    /// a recycled battery is field-for-field identical to a fresh one.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Derives the feature values, each normalized into `[0, 1]`:
    ///
    /// 1. **Chi-square distance** `d/(d + 255)` with
    ///    `d = |χ² − 255|` — ≈0 for uniform bytes, →1 as the byte
    ///    distribution departs from uniform.
    /// 2. **Runs ratio** `R/E[R|n₀,n₁] / 2`, clamped — ≈0.5 for
    ///    independent bits, below for run-heavy (correlated) streams.
    /// 3. **Autocorrelation** `(r + 1)/2` at lags 1, 2, and 4 (three
    ///    features) — ≈0.5 for independent bytes, above for positively
    ///    correlated ones.
    /// 4. **Longest byte run** `min(run, 256)/256`.
    ///
    /// All floats derive from the integer accumulators in a fixed
    /// operation order, so equal fed inputs (however chunked) give
    /// bit-identical outputs. An empty battery returns all zeros.
    pub fn finish(&self) -> [f64; BATTERY_FEATURES] {
        if self.total == 0 {
            return [0.0; BATTERY_FEATURES];
        }
        let n = self.total as f64;

        // Chi-square against the uniform byte distribution, 255 df.
        let expected = n / 256.0;
        let mut chi = 0.0f64;
        for &c in &self.counts {
            let d = c as f64 - expected;
            chi += d * d / expected;
        }
        let chi_dist = (chi - 255.0).abs();
        let chi_feature = chi_dist / (chi_dist + 255.0);

        // Wald–Wolfowitz runs ratio, conditioned on the observed bit
        // counts: E[R | n0, n1] = 1 + 2·n0·n1/bits.
        let bits = 8 * self.total;
        let ones = self.bit_ones;
        let zeros = bits - ones;
        let runs_feature = if ones == 0 || zeros == 0 {
            0.0
        } else {
            let expected_runs = 1.0 + (2.0 * ones as f64 * zeros as f64) / bits as f64;
            (self.bit_runs as f64 / expected_runs / 2.0).clamp(0.0, 1.0)
        };

        let mut out = [0.0; BATTERY_FEATURES];
        out[0] = chi_feature;
        out[1] = runs_feature;
        for (slot, acc) in out[2..2 + LAGS.len()].iter_mut().zip(&self.lags) {
            *slot = pearson_feature(acc);
        }
        out[2 + LAGS.len()] = self.max_run.min(256) as f64 / 256.0;
        out
    }
}

/// Pearson correlation of a lag's pairs, mapped to `[0, 1]` via
/// `(r + 1)/2`. The products are exact in `i128`, so the only float
/// operations are the final conversions, square roots, and one divide —
/// a fixed sequence independent of how the input was chunked.
/// Degenerate accumulators (fewer than two pairs, or a constant side)
/// report the uncorrelated midpoint `0.5`.
fn pearson_feature(acc: &LagAcc) -> f64 {
    if acc.pairs < 2 {
        return 0.5;
    }
    let m = i128::from(acc.pairs);
    let num = m * i128::from(acc.sum_ab) - i128::from(acc.sum_a) * i128::from(acc.sum_b);
    let den_a = m * i128::from(acc.sum_aa) - i128::from(acc.sum_a) * i128::from(acc.sum_a);
    let den_b = m * i128::from(acc.sum_bb) - i128::from(acc.sum_b) * i128::from(acc.sum_b);
    if den_a <= 0 || den_b <= 0 {
        return 0.5;
    }
    let r = num as f64 / ((den_a as f64).sqrt() * (den_b as f64).sqrt());
    (0.5 * (r + 1.0)).clamp(0.0, 1.0)
}

/// One-shot battery over a complete byte slice.
pub fn battery_features(data: &[u8]) -> [f64; BATTERY_FEATURES] {
    let mut b = RandomnessBattery::new();
    b.update(data);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-uniform bytes (splitmix64 stream).
    fn uniform_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn incremental_equals_one_shot_across_chunkings() {
        let data = uniform_bytes(4096, 7);
        let one_shot = battery_features(&data);
        for chunk_len in [1usize, 2, 3, 7, 64, 1500, 4096] {
            let mut inc = RandomnessBattery::new();
            for chunk in data.chunks(chunk_len) {
                inc.update(chunk);
            }
            assert_eq!(inc.finish(), one_shot, "chunk_len={chunk_len}");
        }
    }

    #[test]
    fn steady_loop_leaves_the_state_the_general_step_would() {
        // Field for field, not just the same features: `step` alone is
        // the definition, `update` the peeled form of it.
        let data = uniform_bytes(300, 11);
        for chunk_len in [1usize, 2, 3, 4, 5, 7, 97, 300] {
            let mut peeled = RandomnessBattery::new();
            let mut stepped = RandomnessBattery::new();
            for chunk in data.chunks(chunk_len) {
                peeled.update(chunk);
                chunk.iter().for_each(|&b| stepped.step(b));
                assert_eq!(peeled, stepped, "chunk_len={chunk_len}");
            }
        }
    }

    #[test]
    fn reset_restores_the_fresh_state() {
        let mut battery = RandomnessBattery::new();
        battery.update(&uniform_bytes(1000, 3));
        battery.reset();
        assert_eq!(battery, RandomnessBattery::new());
        battery.update(b"abc");
        assert_eq!(battery.finish(), battery_features(b"abc"));
    }

    #[test]
    fn empty_input_reports_zeros() {
        assert_eq!(battery_features(&[]), [0.0; BATTERY_FEATURES]);
    }

    #[test]
    fn uniform_bytes_look_random() {
        let f = battery_features(&uniform_bytes(8192, 42));
        assert!(f[0] < 0.25, "chi feature on uniform bytes: {}", f[0]);
        assert!((f[1] - 0.5).abs() < 0.05, "runs feature on uniform bytes: {}", f[1]);
        for (lag, value) in f.iter().enumerate().take(5).skip(2) {
            assert!((value - 0.5).abs() < 0.05, "lag feature {lag}: {value}");
        }
        assert!(f[5] <= 3.0 / 256.0, "longest run on uniform bytes: {}", f[5]);
    }

    #[test]
    fn biased_bits_fail_chi_square_while_repetition_fails_autocorrelation() {
        // Bytes of iid biased bits (p(1)=0.55): h1 stays ≈0.99 but the
        // popcount skew concentrates byte mass — chi must light up.
        let mut state = 99u64;
        let mut bit = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) as u32 % 100 < 55
        };
        let biased: Vec<u8> = (0..4096)
            .map(|_| {
                let mut b = 0u8;
                for _ in 0..8 {
                    b = (b << 1) | u8::from(bit());
                }
                b
            })
            .collect();
        let f = battery_features(&biased);
        let u = battery_features(&uniform_bytes(4096, 1));
        assert!(f[0] > 2.0 * u[0] + 0.1, "biased chi {} vs uniform {}", f[0], u[0]);

        // Repeated 2-byte patterns: lag-2 autocorrelation must rise.
        let mut patterned = Vec::new();
        let base = uniform_bytes(4096, 5);
        let mut i = 0;
        while patterned.len() < 4096 {
            let pat = [base[i % base.len()], base[(i + 1) % base.len()]];
            for _ in 0..3 {
                patterned.extend_from_slice(&pat);
            }
            i += 2;
        }
        let p = battery_features(&patterned);
        assert!(p[3] > 0.6, "lag-2 autocorrelation on patterned data: {}", p[3]);
    }

    #[test]
    fn single_byte_input_is_well_defined() {
        let f = battery_features(&[0xA5]);
        assert!(f.iter().all(|v| v.is_finite()));
        assert_eq!(f[5], 1.0 / 256.0);
    }
}
