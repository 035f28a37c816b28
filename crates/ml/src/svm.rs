//! Soft-margin support vector machines.
//!
//! The paper's best classifier is an SVM with a Radial Basis Function
//! kernel (`γ = 50`, `C = 1000` for exact entropy vectors; `γ = 10`
//! after re-selection for estimated vectors, §4.4.2). Binary SVMs are
//! trained here by SMO with second-order working-set selection (Fan,
//! Chen & Lin, JMLR 2005 — the LIBSVM solver), which is deterministic
//! and stops on the duality gap; multi-class combination lives in
//! [`crate::multiclass`].

use crate::dataset::Dataset;
use crate::parallel::{run_indexed, Parallelism};
use crate::DimensionMismatch;

/// Stopping tolerance `ε`: training ends once the maximal KKT violation
/// `m(α) − M(α)` is below it (LIBSVM's default).
const EPS: f64 = 1e-3;

/// Curvature used for a working pair whose `K_ii + K_jj − 2K_ij` is not
/// positive (LIBSVM's `τ`), so the step stays finite.
const TAU: f64 = 1e-12;

/// Largest training set whose kernel matrix is precomputed (≤ 64 MiB of
/// `f64`); above it each iteration evaluates the two rows it needs.
const PRECOMPUTE_MAX: usize = 2896;

/// A kernel function for the SVM.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Kernel {
    /// `K(x, y) = x·y`.
    Linear,
    /// `K(x, y) = exp(−γ·‖x − y‖²)` — the paper's choice.
    Rbf {
        /// The width parameter `γ`.
        gamma: f64,
    },
}

impl Kernel {
    /// Evaluates the kernel on two feature vectors.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the vectors have different lengths.
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        match *self {
            Kernel::Linear => x.iter().zip(y).map(|(a, b)| a * b).sum(),
            Kernel::Rbf { gamma } => {
                let d2: f64 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
                (-gamma * d2).exp()
            }
        }
    }
}

/// Training parameters for [`BinarySvm::fit`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SvmParams {
    /// Soft-margin penalty `C`.
    pub c: f64,
    /// Kernel.
    pub kernel: Kernel,
    /// Worker threads for the deterministic parallel parts of training
    /// (kernel-matrix rows; pairwise fits in [`crate::multiclass`]).
    /// Never affects results — see [`crate::parallel`].
    pub parallelism: Parallelism,
}

impl SvmParams {
    /// The paper's model for exact entropy vectors: RBF, `γ=50`, `C=1000`.
    pub fn paper_rbf() -> Self {
        SvmParams { c: 1000.0, kernel: Kernel::Rbf { gamma: 50.0 }, ..Default::default() }
    }

    /// The paper's re-selected model for `(δ,ε)`-estimated vectors:
    /// RBF, `γ=10`, `C=1000` (§4.4.2).
    pub fn paper_rbf_estimated() -> Self {
        SvmParams { c: 1000.0, kernel: Kernel::Rbf { gamma: 10.0 }, ..Default::default() }
    }
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams { c: 1.0, kernel: Kernel::Rbf { gamma: 1.0 }, parallelism: Parallelism::auto() }
    }
}

/// A trained binary SVM: `f(x) = Σᵢ αᵢ·yᵢ·K(xᵢ, x) + b`, predicting the
/// positive class when `f(x) ≥ 0`.
///
/// Only support vectors (samples with `αᵢ > 0`) are retained.
///
/// # Examples
///
/// ```
/// use iustitia_ml::svm::{BinarySvm, Kernel, SvmParams};
///
/// let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
/// let ys: Vec<bool> = (0..40).map(|i| i >= 20).collect();
/// let params = SvmParams { c: 10.0, kernel: Kernel::Linear, ..Default::default() };
/// let svm = BinarySvm::fit(&xs, &ys, &params);
/// assert!(!svm.predict(&[0.1]));
/// assert!(svm.predict(&[0.9]));
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BinarySvm {
    support_vectors: Vec<Vec<f64>>,
    /// `αᵢ·yᵢ` for each support vector.
    coefficients: Vec<f64>,
    bias: f64,
    kernel: Kernel,
    n_features: usize,
}

impl BinarySvm {
    /// Trains on `samples` with boolean labels (`true` = positive class).
    ///
    /// The dual `min ½αᵀQα − eᵀα` subject to `0 ≤ αᵢ ≤ C`, `yᵀα = 0`, with
    /// `Q_ij = yᵢ·yⱼ·K_ij`, is solved by SMO over the gradient `G = Qα − e`.
    /// Each step takes `i = argmax_{I_up} −y_t·G_t` and, among `I_low`, the
    /// `j` with the largest second-order decrease `b²/a` (WSS 3 of Fan,
    /// Chen & Lin 2005); training stops once the duality gap
    /// `m(α) − M(α)` is below `ε = 1e-3`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, lengths mismatch, only one class
    /// is present, or the gap is still at least `ε` after
    /// `max(10⁷, 100·n)` iterations.
    pub fn fit(samples: &[Vec<f64>], labels: &[bool], params: &SvmParams) -> Self {
        assert_eq!(samples.len(), labels.len(), "samples/labels length mismatch");
        assert!(!samples.is_empty(), "cannot train on an empty set");
        assert!(
            labels.iter().any(|&l| l) && labels.iter().any(|&l| !l),
            "training set must contain both classes"
        );
        let n = samples.len();
        let n_features = samples[0].len();
        assert!(
            samples.iter().all(|s| s.len() == n_features),
            "all samples must share one feature width"
        );
        let y: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { -1.0 }).collect();
        let c = params.c;

        // Rows parallelize deterministically: each cell is one pure
        // `Kernel::eval` written exactly once, so the thread count
        // cannot change a single bit of the matrix. The solver loop
        // stays serial: each step's pair depends on the gradient the
        // last step left.
        let gram: Option<Vec<f64>> = (n <= PRECOMPUTE_MAX).then(|| {
            let threads = params.parallelism.resolve();
            let rows: Vec<Vec<f64>> = run_indexed(threads, n, |i| {
                (i..n).map(|j| params.kernel.eval(&samples[i], &samples[j])).collect()
            });
            let mut k = vec![0f64; n * n];
            for (i, row) in rows.iter().enumerate() {
                for (off, &v) in row.iter().enumerate() {
                    let j = i + off;
                    k[i * n + j] = v;
                    k[j * n + i] = v;
                }
            }
            k
        });
        let diag: Vec<f64> = samples.iter().map(|s| params.kernel.eval(s, s)).collect();
        let (mut buf_i, mut buf_j) = (Vec::new(), Vec::new());
        let in_up = |t: usize, a: f64| if y[t] > 0.0 { a < c } else { a > 0.0 };
        let in_low = |t: usize, a: f64| if y[t] > 0.0 { a > 0.0 } else { a < c };

        let mut alpha = vec![0.0f64; n];
        let mut grad = vec![-1.0f64; n];
        let max_iters = (100 * n).max(10_000_000);
        for iter in 0.. {
            // Ties go to the later index, so the pair is a pure function
            // of (α, G).
            let mut g_max = f64::NEG_INFINITY;
            let mut i = 0;
            for t in 0..n {
                if in_up(t, alpha[t]) && -y[t] * grad[t] >= g_max {
                    g_max = -y[t] * grad[t];
                    i = t;
                }
            }
            let k_i = kernel_row(gram.as_deref(), samples, params.kernel, i, &mut buf_i);
            let mut g_max2 = f64::NEG_INFINITY;
            let mut best = f64::INFINITY;
            let mut j = None;
            for t in 0..n {
                if !in_low(t, alpha[t]) {
                    continue;
                }
                let yg = y[t] * grad[t];
                if yg >= g_max2 {
                    g_max2 = yg;
                }
                let b = g_max + yg;
                if b > 0.0 {
                    let obj = -b * b / curvature(diag[i] + diag[t] - 2.0 * k_i[t]);
                    if obj <= best {
                        best = obj;
                        j = Some(t);
                    }
                }
            }
            let gap = g_max + g_max2;
            let j = match j {
                Some(j) if gap >= EPS => j,
                _ => break,
            };
            assert!(
                iter < max_iters,
                "SVM training did not converge: n = {n}, {iter} iterations, gap {gap:e} ≥ ε = {EPS:e}"
            );

            // LIBSVM's analytic solution of the two-variable subproblem,
            // clipped to the box; a clip writes the bound exactly.
            let k_j = kernel_row(gram.as_deref(), samples, params.kernel, j, &mut buf_j);
            let a = curvature(diag[i] + diag[j] - 2.0 * k_i[j]);
            let (old_i, old_j) = (alpha[i], alpha[j]);
            if y[i] != y[j] {
                let delta = (-grad[i] - grad[j]) / a;
                let diff = old_i - old_j;
                alpha[i] += delta;
                alpha[j] += delta;
                if diff > 0.0 {
                    if alpha[j] < 0.0 {
                        (alpha[i], alpha[j]) = (diff, 0.0);
                    }
                    if alpha[i] > c {
                        (alpha[i], alpha[j]) = (c, c - diff);
                    }
                } else {
                    if alpha[i] < 0.0 {
                        (alpha[i], alpha[j]) = (0.0, -diff);
                    }
                    if alpha[j] > c {
                        (alpha[i], alpha[j]) = (c + diff, c);
                    }
                }
            } else {
                let delta = (grad[i] - grad[j]) / a;
                let sum = old_i + old_j;
                alpha[i] -= delta;
                alpha[j] += delta;
                if sum > c {
                    if alpha[i] > c {
                        (alpha[i], alpha[j]) = (c, sum - c);
                    }
                    if alpha[j] > c {
                        (alpha[i], alpha[j]) = (sum - c, c);
                    }
                } else {
                    if alpha[j] < 0.0 {
                        (alpha[i], alpha[j]) = (sum, 0.0);
                    }
                    if alpha[i] < 0.0 {
                        (alpha[i], alpha[j]) = (0.0, sum);
                    }
                }
            }
            let (d_i, d_j) = (y[i] * (alpha[i] - old_i), y[j] * (alpha[j] - old_j));
            for ((g, &y_t), (&ki, &kj)) in grad.iter_mut().zip(&y).zip(k_i.iter().zip(k_j)) {
                *g += y_t * (d_i * ki + d_j * kj);
            }
        }

        // b = −ρ: ρ is the mean of y_t·G_t over the free multipliers, or
        // the midpoint of its feasible interval when none is free.
        let (mut upper, mut lower) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut free_sum, mut n_free) = (0.0, 0usize);
        for t in 0..n {
            let yg = y[t] * grad[t];
            if alpha[t] > 0.0 && alpha[t] < c {
                free_sum += yg;
                n_free += 1;
            } else if in_up(t, alpha[t]) {
                upper = upper.min(yg);
            } else {
                lower = lower.max(yg);
            }
        }
        let rho = if n_free > 0 { free_sum / n_free as f64 } else { 0.5 * (upper + lower) };

        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        for t in 0..n {
            if alpha[t] > 0.0 {
                support_vectors.push(samples[t].clone());
                coefficients.push(alpha[t] * y[t]);
            }
        }
        BinarySvm { support_vectors, coefficients, bias: -rho, kernel: params.kernel, n_features }
    }

    /// Trains a one-vs-one binary SVM on two classes of a [`Dataset`],
    /// with `pos_class` as the positive label.
    ///
    /// # Panics
    ///
    /// Panics if either class has no samples.
    pub fn fit_pair(
        data: &Dataset,
        pos_class: usize,
        neg_class: usize,
        params: &SvmParams,
    ) -> Self {
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for (x, y) in data.iter() {
            if y == pos_class {
                samples.push(x.to_vec());
                labels.push(true);
            } else if y == neg_class {
                samples.push(x.to_vec());
                labels.push(false);
            }
        }
        BinarySvm::fit(&samples, &labels, params)
    }

    /// The decision value `f(x)`, or a typed error on a wrong-width
    /// vector.
    ///
    /// [`Kernel::eval`]'s own length check is `debug_assert!`-only, so
    /// in release builds a wrong-width vector would silently
    /// zip-truncate to a wrong-but-confident value; this boundary check
    /// runs in every build.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatch`] when `features.len()` differs from
    /// the trained width.
    pub fn try_decision_value(&self, features: &[f64]) -> Result<f64, DimensionMismatch> {
        if features.len() != self.n_features {
            return Err(DimensionMismatch { expected: self.n_features, got: features.len() });
        }
        let mut f = self.bias;
        for (sv, &c) in self.support_vectors.iter().zip(&self.coefficients) {
            f += c * self.kernel.eval(sv, features);
        }
        Ok(f)
    }

    /// The decision value `f(x)`; positive means the positive class.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimensionality; use
    /// [`try_decision_value`](Self::try_decision_value) for a typed
    /// error.
    pub fn decision_value(&self, features: &[f64]) -> f64 {
        match self.try_decision_value(features) {
            Ok(f) => f,
            // lint: allow(L008) — documented panicking wrapper; prediction paths validate via try_decision_value
            Err(e) => panic!("feature dimensionality mismatch: {e}"),
        }
    }

    /// Predicts the binary label (`true` = positive class), or reports
    /// a wrong-width vector.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatch`] when `features.len()` differs from
    /// the trained width.
    pub fn try_predict(&self, features: &[f64]) -> Result<bool, DimensionMismatch> {
        Ok(self.try_decision_value(features)? >= 0.0)
    }

    /// Predicts the binary label (`true` = positive class).
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimensionality; use
    /// [`try_predict`](Self::try_predict) for a typed error.
    pub fn predict(&self, features: &[f64]) -> bool {
        self.decision_value(features) >= 0.0
    }

    /// Number of retained support vectors.
    pub fn n_support_vectors(&self) -> usize {
        self.support_vectors.len()
    }

    /// The kernel in use.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Feature-vector width the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Retained support vectors (compiled-model packing).
    pub(crate) fn support_vectors(&self) -> &[Vec<f64>] {
        &self.support_vectors
    }

    /// `αᵢ·yᵢ` per support vector (compiled-model packing).
    pub(crate) fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// The bias term `b` (compiled-model packing).
    pub(crate) fn bias(&self) -> f64 {
        self.bias
    }
}

/// The pair curvature `K_ii + K_jj − 2K_ij`, or `τ` when it is not
/// positive.
fn curvature(a: f64) -> f64 {
    if a > 0.0 {
        a
    } else {
        TAU
    }
}

/// Row `t` of the kernel matrix: a slice of the precomputed matrix, or
/// evaluated into `buf` when there is none.
fn kernel_row<'a>(
    gram: Option<&'a [f64]>,
    samples: &[Vec<f64>],
    kernel: Kernel,
    t: usize,
    buf: &'a mut Vec<f64>,
) -> &'a [f64] {
    let n = samples.len();
    match gram {
        Some(k) => &k[t * n..(t + 1) * n],
        None => {
            buf.clear();
            buf.extend(samples.iter().map(|s| kernel.eval(&samples[t], s)));
            buf
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn linear_separable(n: usize) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut v = 0.3f64;
        for _ in 0..n {
            v = (v * 991.7).fract();
            let a = v;
            v = (v * 617.3).fract();
            let b = v;
            xs.push(vec![a, b]);
            ys.push(a + b > 1.0);
        }
        (xs, ys)
    }

    #[test]
    fn kernel_values() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let rbf = Kernel::Rbf { gamma: 1.0 };
        assert!((rbf.eval(&[0.0], &[0.0]) - 1.0).abs() < 1e-12);
        assert!((rbf.eval(&[0.0], &[1.0]) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn linear_svm_separates() {
        let (xs, ys) = linear_separable(200);
        let params = SvmParams { c: 100.0, kernel: Kernel::Linear, ..Default::default() };
        let svm = BinarySvm::fit(&xs, &ys, &params);
        let correct = xs.iter().zip(&ys).filter(|(x, &y)| svm.predict(x) == y).count();
        assert!(correct as f64 / xs.len() as f64 > 0.95, "correct={correct}");
        assert!(svm.n_support_vectors() < xs.len());
    }

    #[test]
    fn rbf_svm_handles_nonlinear_boundary() {
        // circle: inside radius 0.35 of center → positive
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut v = 0.77f64;
        for _ in 0..300 {
            v = (v * 883.1).fract();
            let a = v;
            v = (v * 409.9).fract();
            let b = v;
            xs.push(vec![a, b]);
            ys.push(((a - 0.5).powi(2) + (b - 0.5).powi(2)).sqrt() < 0.35);
        }
        let params =
            SvmParams { c: 50.0, kernel: Kernel::Rbf { gamma: 10.0 }, ..Default::default() };
        let svm = BinarySvm::fit(&xs, &ys, &params);
        let acc = xs.iter().zip(&ys).filter(|(x, &y)| svm.predict(x) == y).count() as f64
            / xs.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");

        // A linear SVM cannot do this well.
        let lin = BinarySvm::fit(
            &xs,
            &ys,
            &SvmParams { c: 50.0, kernel: Kernel::Linear, ..Default::default() },
        );
        let lin_acc = xs.iter().zip(&ys).filter(|(x, &y)| lin.predict(x) == y).count() as f64
            / xs.len() as f64;
        assert!(acc > lin_acc, "rbf {acc} vs linear {lin_acc}");
    }

    #[test]
    fn decision_values_have_margin_sign() {
        let (xs, ys) = linear_separable(100);
        let params = SvmParams { c: 100.0, kernel: Kernel::Linear, ..Default::default() };
        let svm = BinarySvm::fit(&xs, &ys, &params);
        assert!(svm.decision_value(&[0.95, 0.95]) > 0.0);
        assert!(svm.decision_value(&[0.05, 0.05]) < 0.0);
    }

    #[test]
    fn fit_pair_extracts_two_classes() {
        let mut ds = Dataset::new(1, vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..30 {
            ds.push(vec![i as f64 / 30.0], 0);
            ds.push(vec![1.0 + i as f64 / 30.0], 1);
            ds.push(vec![2.0 + i as f64 / 30.0], 2);
        }
        let params = SvmParams { c: 10.0, kernel: Kernel::Linear, ..Default::default() };
        let svm = BinarySvm::fit_pair(&ds, 2, 0, &params);
        assert!(svm.predict(&[2.5])); // class 2 side
        assert!(!svm.predict(&[0.1])); // class 0 side
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_panics() {
        let xs = vec![vec![0.0], vec![1.0]];
        BinarySvm::fit(&xs, &[true, true], &SvmParams::default());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        BinarySvm::fit(&[vec![0.0]], &[true, false], &SvmParams::default());
    }

    #[test]
    fn paper_presets() {
        assert_eq!(SvmParams::paper_rbf().kernel, Kernel::Rbf { gamma: 50.0 });
        assert_eq!(SvmParams::paper_rbf().c, 1000.0);
        assert_eq!(SvmParams::paper_rbf_estimated().kernel, Kernel::Rbf { gamma: 10.0 });
    }

    /// Asserts that `svm` is a KKT point of the dual over `(xs, ys)`: α
    /// rebuilt from the model is feasible, the duality gap recomputed
    /// from `f(x_t)`, outside the solver's own gradient, is below `ε`,
    /// and the bias lies between `m(α)` and `M(α)`.
    fn assert_kkt_point(svm: &BinarySvm, xs: &[Vec<f64>], ys: &[bool], c: f64) {
        // Support vectors keep sample order; a non-SV has α = 0.
        let mut svs = svm.support_vectors().iter().zip(svm.coefficients()).peekable();
        let alpha: Vec<f64> = xs
            .iter()
            .zip(ys)
            .map(|(x, &l)| match svs.next_if(|&(sv, _)| sv == x) {
                Some((_, &coef)) => {
                    if l {
                        coef
                    } else {
                        -coef
                    }
                }
                None => 0.0,
            })
            .collect();
        assert!(svs.next().is_none(), "a support vector is not a training sample");
        for &a in alpha.iter().filter(|&&a| a != 0.0) {
            assert!(a > 0.0 && a <= c, "α = {a} outside (0, {c}]");
        }
        let balance: f64 = svm.coefficients().iter().sum();
        assert!(balance.abs() <= 1e-9 * c, "Σ αᵢyᵢ = {balance:e}");

        // −y_t·G_t = y_t − Σ_s αₛyₛ·K(xₛ, x_t).
        let (mut m, mut big_m) = (f64::NEG_INFINITY, f64::INFINITY);
        for ((x, &l), &a) in xs.iter().zip(ys).zip(&alpha) {
            let y_t = if l { 1.0 } else { -1.0 };
            let f: f64 = svm
                .support_vectors()
                .iter()
                .zip(svm.coefficients())
                .map(|(sv, &coef)| coef * svm.kernel().eval(sv, x))
                .sum();
            let v = y_t - f;
            if (l && a < c) || (!l && a > 0.0) {
                m = m.max(v);
            }
            if (l && a > 0.0) || (!l && a < c) {
                big_m = big_m.min(v);
            }
        }
        assert!(m - big_m <= EPS + 1e-9, "gap m − M = {:e}", m - big_m);
        // b is the mean of −y_t·G_t over free multipliers, or the
        // midpoint of m and M when none is free: between the two either way.
        let b = svm.bias();
        assert!(m.min(big_m) - 1e-9 <= b && b <= m.max(big_m) + 1e-9, "b = {b} vs [{big_m}, {m}]");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fit_meets_the_kkt_conditions_within_eps(
            mut points in proptest::collection::vec(((0u16..1000, 0u16..1000), any::<bool>()), 4..60),
            kernel in prop_oneof![
                Just(Kernel::Linear),
                (0.5f64..50.0).prop_map(|gamma| Kernel::Rbf { gamma }),
            ],
            c in prop_oneof![Just(1.0), Just(10.0), Just(1000.0)],
        ) {
            points.sort_unstable();
            points.dedup_by_key(|&mut (p, _)| p);
            prop_assume!(points.len() >= 2);
            (points[0].1, points[1].1) = (true, false);
            let xs: Vec<Vec<f64>> = points
                .iter()
                .map(|&((a, b), _)| vec![f64::from(a) / 1000.0, f64::from(b) / 1000.0])
                .collect();
            let ys: Vec<bool> = points.iter().map(|&(_, l)| l).collect();
            let svm = BinarySvm::fit(&xs, &ys, &SvmParams { c, kernel, ..Default::default() });
            assert_kkt_point(&svm, &xs, &ys, c);
        }
    }

    #[test]
    fn kernel_rows_are_evaluated_on_demand_above_the_precompute_limit() {
        let (xs, ys) = linear_separable(PRECOMPUTE_MAX + 1);
        let params =
            SvmParams { c: 10.0, kernel: Kernel::Rbf { gamma: 8.0 }, ..Default::default() };
        assert_kkt_point(&BinarySvm::fit(&xs, &ys, &params), &xs, &ys, params.c);
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = linear_separable(120);
        let params = SvmParams { c: 10.0, kernel: Kernel::Linear, ..Default::default() };
        let a = BinarySvm::fit(&xs, &ys, &params);
        let b = BinarySvm::fit(&xs, &ys, &params);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial() {
        let (xs, ys) = linear_separable(150);
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 8.0 }] {
            let serial = SvmParams { c: 10.0, kernel, parallelism: Parallelism::serial() };
            let parallel = SvmParams { parallelism: Parallelism::fixed(4), ..serial };
            assert_eq!(
                BinarySvm::fit(&xs, &ys, &serial),
                BinarySvm::fit(&xs, &ys, &parallel),
                "kernel {kernel:?}"
            );
        }
    }

    #[test]
    fn wrong_width_is_a_typed_error_not_a_silent_truncation() {
        // Regression: Kernel::eval's length check is debug-only, so in
        // release a 1-wide probe against a 2-wide model used to
        // zip-truncate into a confident nonsense verdict.
        let (xs, ys) = linear_separable(80);
        let params = SvmParams { c: 10.0, kernel: Kernel::Linear, ..Default::default() };
        let svm = BinarySvm::fit(&xs, &ys, &params);
        assert_eq!(
            svm.try_decision_value(&[0.5]),
            Err(crate::DimensionMismatch { expected: 2, got: 1 })
        );
        assert_eq!(
            svm.try_predict(&[0.1, 0.2, 0.3]),
            Err(crate::DimensionMismatch { expected: 2, got: 3 })
        );
        assert!(svm.try_predict(&[0.9, 0.9]).is_ok());
    }

    #[test]
    #[should_panic(expected = "feature dimensionality mismatch")]
    fn wrong_width_panics_on_infallible_path() {
        let (xs, ys) = linear_separable(80);
        let params = SvmParams { c: 10.0, kernel: Kernel::Linear, ..Default::default() };
        BinarySvm::fit(&xs, &ys, &params).predict(&[0.5]);
    }

    #[test]
    #[should_panic(expected = "feature width")]
    fn ragged_training_samples_panic() {
        let xs = vec![vec![0.0, 0.0], vec![1.0]];
        BinarySvm::fit(&xs, &[true, false], &SvmParams::default());
    }
}
