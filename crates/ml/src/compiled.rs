//! Compiled (flattened, allocation-free) inference for trained models.
//!
//! The boxed training-time representations are convenient to grow but
//! slow to evaluate: [`DecisionTree::predict`] chases arena indices laid
//! out in construction order, and [`DagSvm::predict`] re-evaluates
//! `K(sv, x)` for every support vector of every binary classifier it
//! visits — even though the pairwise SVMs of one DAG share most of
//! their support vectors (they are rows of the same training set).
//!
//! Compiling produces cache- and branch-friendly equivalents:
//!
//! * [`CompiledTree`] — nodes flattened into one preorder array (child
//!   hot path adjacent to its parent, no `Box`, no per-node `enum`
//!   dispatch beyond a sentinel check).
//! * [`CompiledDag`] — every *distinct* support
//!   vector stored once in a contiguous row-major matrix; each binary
//!   classifier holds (SV index, coefficient) terms plus a bias. During
//!   one `predict`, `K(sv, x)` is computed **at most once per distinct
//!   SV** (epoch-stamped memo) and shared across all classifiers the
//!   DAG visits. All scratch lives in the compiled model, so `predict`
//!   performs **zero heap allocations** (pinned by
//!   `crates/core/tests/pool_alloc.rs`).
//!
//! Every compiled predictor is bit-identical to its boxed source:
//!
//! * Tree: same `features[f] <= threshold` comparisons over the same
//!   thresholds; leaf labels are computed once at compile time by the
//!   same majority rule.
//! * SVM: a binary decision is `bias + Σᵢ coeffᵢ·K(svᵢ, x)` accumulated
//!   in the *original support-vector order* of that classifier, and SV
//!   dedup keys on exact `f64` bit patterns, so every `K` input — and
//!   therefore every intermediate float — is unchanged.

use std::collections::HashMap;

use crate::cart::{DecisionTree, NodeKind};
use crate::multiclass::DagSvm;
use crate::svm::Kernel;
use crate::{Classifier, DimensionMismatch};

/// Sentinel `feature` value marking a leaf node (its `left` field holds
/// the class label).
const LEAF: u32 = u32::MAX;

/// One flattened tree node. Leaves store their label in `left`, `LEAF`
/// in `feature`, and repurpose `threshold` (never compared on leaves)
/// for the training purity of the leaf — the anytime margin.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlatNode {
    threshold: f64,
    feature: u32,
    left: u32,
    right: u32,
}

/// An array-flattened [`DecisionTree`]: preorder nodes, no boxing, a
/// branch-predictable walk. Prediction-equivalent to the source tree.
///
/// # Examples
///
/// ```
/// use iustitia_ml::cart::{CartParams, DecisionTree};
/// use iustitia_ml::compiled::CompiledTree;
/// use iustitia_ml::dataset::Dataset;
/// use iustitia_ml::Classifier;
///
/// let mut ds = Dataset::new(1, vec!["no".into(), "yes".into()]);
/// for i in 0..20 {
///     ds.push(vec![i as f64], usize::from(i >= 10));
/// }
/// let tree = DecisionTree::fit(&ds, &CartParams::default());
/// let fast = CompiledTree::compile(&tree);
/// assert_eq!(fast.predict(&[3.0]), tree.predict(&[3.0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTree {
    nodes: Vec<FlatNode>,
    n_classes: usize,
    n_features: usize,
}

impl CompiledTree {
    /// Flattens a trained tree into the compiled form.
    pub fn compile(tree: &DecisionTree) -> Self {
        let mut nodes = Vec::with_capacity(tree.n_nodes());
        flatten(tree, tree.root_index(), &mut nodes);
        CompiledTree { nodes, n_classes: tree.n_classes(), n_features: tree.n_features() }
    }

    /// Predicts the class index, or reports a feature-width mismatch
    /// instead of silently mis-evaluating (see
    /// [`DimensionMismatch`]).
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatch`] when `features.len()` differs from
    /// the width the tree was trained on.
    pub fn try_predict(&self, features: &[f64]) -> Result<usize, DimensionMismatch> {
        if features.len() != self.n_features {
            return Err(DimensionMismatch { expected: self.n_features, got: features.len() });
        }
        let mut at = 0usize;
        loop {
            // lint: allow(L008) — child indices are validated against nodes.len() when the tree is flattened
            let node = &self.nodes[at];
            if node.feature == LEAF {
                return Ok(node.left as usize);
            }
            // lint: allow(L008) — node.feature < n_features, checked against features.len() on entry
            at = if features[node.feature as usize] <= node.threshold {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }

    /// Predicts the class index together with a confidence margin in
    /// `[0, 1]` — the training purity of the leaf that fired (fraction
    /// of that leaf's training samples in its majority class). The walk
    /// and the returned label are bit-identical to
    /// [`try_predict`](CompiledTree::try_predict).
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatch`] when `features.len()` differs from
    /// the width the tree was trained on.
    pub fn try_predict_with_margin(
        &self,
        features: &[f64],
    ) -> Result<(usize, f64), DimensionMismatch> {
        if features.len() != self.n_features {
            return Err(DimensionMismatch { expected: self.n_features, got: features.len() });
        }
        let mut at = 0usize;
        loop {
            // lint: allow(L008) — child indices are validated against nodes.len() when the tree is flattened
            let node = &self.nodes[at];
            if node.feature == LEAF {
                return Ok((node.left as usize, node.threshold));
            }
            // lint: allow(L008) — node.feature < n_features, checked against features.len() on entry
            at = if features[node.feature as usize] <= node.threshold {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }

    /// Number of flattened nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Feature-vector width the tree expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

impl Classifier for CompiledTree {
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimensionality; use
    /// [`try_predict`](CompiledTree::try_predict) for a typed error.
    fn predict(&self, features: &[f64]) -> usize {
        match self.try_predict(features) {
            Ok(label) => label,
            // lint: allow(L008) — documented panicking wrapper; hot-path callers use try_predict (chain is .predict() fan-out)
            Err(e) => panic!("feature dimensionality mismatch: {e}"),
        }
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// Preorder-flattens the arena subtree rooted at `arena_idx`, returning
/// the flat index of the emitted node.
fn flatten(tree: &DecisionTree, arena_idx: usize, out: &mut Vec<FlatNode>) -> u32 {
    let slot = out.len() as u32;
    let node = &tree.arena()[arena_idx];
    match node.kind {
        NodeKind::Leaf => {
            // Leaves never consult `threshold` during a walk, so the slot
            // carries the leaf's training purity for `try_predict_with_margin`.
            out.push(FlatNode {
                threshold: node.purity(),
                feature: LEAF,
                left: node.majority() as u32,
                right: 0,
            });
        }
        NodeKind::Split { feature, threshold, left, right } => {
            out.push(FlatNode { threshold: 0.0, feature: LEAF, left: 0, right: 0 });
            let l = flatten(tree, left, out);
            let r = flatten(tree, right, out);
            out[slot as usize] = FlatNode { threshold, feature: feature as u32, left: l, right: r };
        }
    }
    slot
}

/// The shared compiled pairwise-SVM evaluation core: packed support
/// vectors, per-classifier coefficient slices, and (when support
/// vectors are shared between enough classifiers) an epoch-stamped
/// kernel memo that makes one predict evaluate each distinct SV at
/// most once.
#[derive(Debug, Clone, PartialEq)]
struct PackedPairwise {
    n_classes: usize,
    n_features: usize,
    kernel: Kernel,
    /// Packed support vectors, row-major (`n_svs × n_features`). Rows
    /// are deduplicated across classifiers when the memo is engaged,
    /// and stored once per term (row `t` = term `t`) otherwise.
    sv_data: Vec<f64>,
    n_svs: usize,
    /// Distinct support vectors across all classifiers (a stat — equal
    /// to `n_svs` only in the deduplicated layout).
    n_distinct: usize,
    /// CSR-style slice bounds into `term_sv`/`term_coeff`, one entry
    /// per pair rank plus a final end sentinel.
    pair_offsets: Vec<u32>,
    /// Per term: row index into `sv_data`.
    term_sv: Vec<u32>,
    /// Per term: `αᵢ·yᵢ` of that support vector in that classifier.
    term_coeff: Vec<f64>,
    /// Per pair rank: the classifier's bias.
    pair_bias: Vec<f64>,
    /// Scratch: memoized `K(sv, x)` for the current predict epoch.
    kval: Vec<f64>,
    /// Scratch: epoch stamp per distinct SV (`kval[i]` is valid iff
    /// `kval_epoch[i] == epoch`).
    kval_epoch: Vec<u64>,
    epoch: u64,
    /// Whether `decision` consults the kernel memo. Chosen at pack
    /// time: the memo costs a stamp check and two stores per term, so
    /// it only pays when enough terms share a support vector to skip
    /// their (much dearer) kernel evaluations.
    use_memo: bool,
    /// Whether row `t` of `sv_data` is term `t`'s support vector
    /// (true for the non-deduplicated layout), letting `decision`
    /// stream rows sequentially without the `term_sv` indirection.
    rows_identity: bool,
}

impl PackedPairwise {
    /// Packs the pairwise models (lexicographic pair order, as stored
    /// by `PairwiseSvms`) into the compiled layout.
    fn pack(n_classes: usize, models: &[&crate::svm::BinarySvm]) -> Self {
        let n_features = models.first().map_or(0, |m| m.n_features());
        let mut sv_data: Vec<f64> = Vec::new();
        let mut n_svs = 0usize;
        // Dedup on exact bit patterns: equal bits ⇒ identical K(sv, x)
        // for every x, so sharing rows cannot perturb a single float.
        let mut index_of: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut pair_offsets: Vec<u32> = Vec::with_capacity(models.len() + 1);
        let mut term_sv: Vec<u32> = Vec::new();
        let mut term_coeff: Vec<f64> = Vec::new();
        let mut pair_bias: Vec<f64> = Vec::with_capacity(models.len());
        pair_offsets.push(0);
        for model in models {
            for (sv, &coeff) in model.support_vectors().iter().zip(model.coefficients()) {
                let bits: Vec<u64> = sv.iter().map(|v| v.to_bits()).collect();
                let row = *index_of.entry(bits).or_insert_with(|| {
                    sv_data.extend_from_slice(sv);
                    n_svs += 1;
                    (n_svs - 1) as u32
                });
                term_sv.push(row);
                term_coeff.push(coeff);
            }
            pair_offsets.push(term_sv.len() as u32);
            pair_bias.push(model.bias());
        }
        let kernel = models.first().map_or(Kernel::Linear, |m| m.kernel());
        // Engage the memo only when at least 1 in 8 terms re-uses a
        // packed row; below that the bookkeeping outweighs the skipped
        // kernel evaluations. Either path sums identical floats in
        // identical order, so the choice never changes a prediction.
        let n_distinct = n_svs;
        let shared_terms = term_sv.len() - n_distinct;
        let use_memo = shared_terms * 8 >= term_sv.len() && !term_sv.is_empty();
        if !use_memo {
            // Too little sharing to earn the `term_sv` indirection:
            // store every term's SV in term order instead, so a
            // decision streams rows sequentially (row `t` = term `t`).
            sv_data.clear();
            n_svs = 0;
            for (t, model) in models.iter().enumerate() {
                for sv in model.support_vectors() {
                    sv_data.extend_from_slice(sv);
                    n_svs += 1;
                }
                debug_assert_eq!(pair_offsets[t + 1] as usize, n_svs);
            }
            term_sv = (0..n_svs as u32).collect();
        }
        let rows_identity = !use_memo;
        PackedPairwise {
            n_classes,
            n_features,
            kernel,
            sv_data,
            n_svs,
            n_distinct,
            pair_offsets,
            term_sv,
            term_coeff,
            pair_bias,
            kval: vec![0.0; n_svs],
            kval_epoch: vec![0; n_svs],
            epoch: 0,
            use_memo,
            rows_identity,
        }
    }

    /// Index of the classifier deciding classes `i < j` (lexicographic
    /// pair rank, mirroring `PairwiseSvms::pair_index`).
    fn pair_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n_classes);
        i * self.n_classes - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Starts a new predict: all memoized kernel values become stale.
    fn begin_predict(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One wrap every 2^64 predicts: invalidate explicitly so a
            // stale stamp can never alias the fresh epoch.
            self.kval_epoch.fill(u64::MAX);
            self.epoch = 1;
        }
    }

    /// The decision value of the pair-`rank` classifier: bias first,
    /// then coefficient terms in original support-vector order — the
    /// exact float accumulation of `BinarySvm::decision_value`. When
    /// the memo is engaged, each distinct SV's `K(sv, x)` is computed
    /// at most once per predict; otherwise a direct walk over the
    /// packed rows skips the stamp bookkeeping. Both paths sum the
    /// same floats in the same order.
    fn decision(&mut self, rank: usize, x: &[f64]) -> f64 {
        // lint: allow(L008) — rank < n_pairs; pair arrays are sized at compile()
        let mut f = self.pair_bias[rank];
        // lint: allow(L008) — pair_offsets has n_pairs + 1 entries; rank + 1 is in range
        let (start, end) = (self.pair_offsets[rank] as usize, self.pair_offsets[rank + 1] as usize);
        let nf = self.n_features;
        if self.use_memo {
            // lint: allow(L008) — row < n_rows: term_sv entries are validated at compile()
            let terms = self.term_sv[start..end].iter().zip(&self.term_coeff[start..end]);
            for (&row, &coeff) in terms {
                let row = row as usize;
                // lint: allow(L008) — packed rows are nf-wide and row < n_rows
                let k = if self.kval_epoch[row] == self.epoch {
                    // lint: allow(L008) — row < n_rows (packed at compile())
                    self.kval[row]
                } else {
                    // lint: allow(L008) — row < n_rows (packed at compile())
                    let v = self.kernel.eval(&self.sv_data[row * nf..(row + 1) * nf], x);
                    // lint: allow(L008) — row < n_rows (packed at compile())
                    self.kval[row] = v;
                    // lint: allow(L008) — row < n_rows (packed at compile())
                    self.kval_epoch[row] = self.epoch;
                    v
                };
                f += coeff * k;
            }
        } else if self.rows_identity {
            // Row `t` = term `t`: stream this classifier's block of
            // `sv_data` without touching `term_sv` at all.
            // lint: allow(L008) — start <= end <= n_rows: offsets are monotone by construction
            let rows = self.sv_data[start * nf..end * nf].chunks_exact(nf);
            // lint: allow(L008) — start <= end <= n_rows: offsets are monotone by construction
            for (sv, &coeff) in rows.zip(&self.term_coeff[start..end]) {
                f += coeff * self.kernel.eval(sv, x);
            }
        } else {
            // lint: allow(L008) — row < n_rows: term_sv entries are validated at compile()
            let terms = self.term_sv[start..end].iter().zip(&self.term_coeff[start..end]);
            for (&row, &coeff) in terms {
                let row = row as usize;
                // lint: allow(L008) — packed rows are nf-wide and row < n_rows
                f += coeff * self.kernel.eval(&self.sv_data[row * nf..(row + 1) * nf], x);
            }
        }
        f
    }

    /// Whether the `(i, j)` classifier prefers class `i`.
    fn prefers_first(&mut self, i: usize, j: usize, x: &[f64]) -> bool {
        let rank = self.pair_index(i, j);
        self.decision(rank, x) >= 0.0
    }

    fn check(&self, features: &[f64]) -> Result<(), DimensionMismatch> {
        if features.len() != self.n_features {
            return Err(DimensionMismatch { expected: self.n_features, got: features.len() });
        }
        Ok(())
    }
}

/// A compiled [`DagSvm`]: identical decision DAG, evaluated over the
/// packed shared-support-vector layout with zero allocations per
/// predict.
///
/// `predict` takes `&mut self` because the kernel memo and epoch are
/// scratch state owned by the model (this crate forbids `unsafe`, so no
/// interior mutability is used); the scratch never changes results.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledDag {
    packed: PackedPairwise,
}

impl CompiledDag {
    /// Packs a trained DAGSVM into the compiled layout.
    pub fn compile(dag: &DagSvm) -> Self {
        let models: Vec<&crate::svm::BinarySvm> = dag.pairwise_models().iter().collect();
        CompiledDag { packed: PackedPairwise::pack(dag.n_classes(), &models) }
    }

    /// Predicts the class index, or reports a feature-width mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatch`] when `features.len()` differs from
    /// the trained width.
    pub fn try_predict(&mut self, features: &[f64]) -> Result<usize, DimensionMismatch> {
        self.packed.check(features)?;
        self.packed.begin_predict();
        let mut lo = 0usize;
        let mut hi = self.packed.n_classes - 1;
        while lo != hi {
            if self.packed.prefers_first(lo, hi, features) {
                hi -= 1;
            } else {
                lo += 1;
            }
        }
        Ok(lo)
    }

    /// Predicts the class index together with a confidence margin in
    /// `[0, 1]`: the smallest absolute pairwise decision value `m` met
    /// along the DAG path, squashed as `m / (1 + m)` — a near-tie
    /// anywhere on the path drives the margin toward zero. The label is
    /// bit-identical to [`try_predict`](CompiledDag::try_predict): both
    /// branch on the same decision values.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatch`] when `features.len()` differs from
    /// the trained width.
    pub fn try_predict_with_margin(
        &mut self,
        features: &[f64],
    ) -> Result<(usize, f64), DimensionMismatch> {
        self.packed.check(features)?;
        self.packed.begin_predict();
        let mut lo = 0usize;
        let mut hi = self.packed.n_classes - 1;
        let mut min_abs = f64::INFINITY;
        while lo != hi {
            let rank = self.packed.pair_index(lo, hi);
            let f = self.packed.decision(rank, features);
            min_abs = min_abs.min(f.abs());
            if f >= 0.0 {
                hi -= 1;
            } else {
                lo += 1;
            }
        }
        // A single-class model walks no edges; treat it as fully confident.
        let margin = if min_abs.is_finite() { min_abs / (1.0 + min_abs) } else { 1.0 };
        Ok((lo, margin))
    }

    /// Predicts the class index.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimensionality; use
    /// [`try_predict`](CompiledDag::try_predict) for a typed error.
    pub fn predict(&mut self, features: &[f64]) -> usize {
        match self.try_predict(features) {
            Ok(label) => label,
            // lint: allow(L008) — documented panicking wrapper; hot-path callers use try_predict (chain is .predict() fan-out)
            Err(e) => panic!("feature dimensionality mismatch: {e}"),
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.packed.n_classes
    }

    /// Feature-vector width the model expects.
    pub fn n_features(&self) -> usize {
        self.packed.n_features
    }

    /// Distinct support vectors across all binary classifiers (the
    /// packed matrix's row count when the memoized layout is chosen).
    pub fn n_distinct_support_vectors(&self) -> usize {
        self.packed.n_distinct
    }

    /// Total (SV, coefficient) terms across all binary classifiers —
    /// what an uncompiled evaluation would store per classifier.
    pub fn n_terms(&self) -> usize {
        self.packed.term_sv.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cart::CartParams;
    use crate::dataset::Dataset;
    use crate::svm::SvmParams;

    fn three_blobs(n_per: usize) -> Dataset {
        let mut ds = Dataset::new(2, vec!["t".into(), "b".into(), "e".into()]);
        let centers = [(0.2, 0.2), (0.8, 0.2), (0.5, 0.9)];
        let mut v = 0.41f64;
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                v = (v * 787.99).fract();
                let dx = (v - 0.5) * 0.3;
                v = (v * 541.17).fract();
                let dy = (v - 0.5) * 0.3;
                ds.push(vec![cx + dx, cy + dy], label);
            }
        }
        ds
    }

    fn probe_grid() -> Vec<Vec<f64>> {
        let mut probes = Vec::new();
        for xi in 0..25 {
            for yi in 0..25 {
                probes.push(vec![xi as f64 / 16.0 - 0.3, yi as f64 / 16.0 - 0.3]);
            }
        }
        probes
    }

    #[test]
    fn compiled_tree_matches_boxed_everywhere() {
        let ds = three_blobs(80);
        let tree = DecisionTree::fit(&ds, &CartParams::default());
        let fast = CompiledTree::compile(&tree);
        assert_eq!(fast.n_classes(), tree.n_classes());
        assert_eq!(fast.n_nodes(), tree.n_nodes());
        for probe in probe_grid() {
            assert_eq!(fast.predict(&probe), tree.predict(&probe), "probe {probe:?}");
        }
    }

    #[test]
    fn compiled_single_leaf_tree() {
        let mut ds = Dataset::new(1, vec!["only".into()]);
        for i in 0..10 {
            ds.push(vec![i as f64], 0);
        }
        let tree = DecisionTree::fit(&ds, &CartParams::default());
        let fast = CompiledTree::compile(&tree);
        assert_eq!(fast.n_nodes(), 1);
        assert_eq!(fast.predict(&[123.0]), 0);
    }

    #[test]
    fn compiled_dag_matches_boxed_everywhere() {
        let ds = three_blobs(50);
        let params =
            SvmParams { c: 10.0, kernel: Kernel::Rbf { gamma: 5.0 }, ..Default::default() };
        let dag = DagSvm::fit(&ds, &params);
        let mut fast = CompiledDag::compile(&dag);
        assert!(fast.n_distinct_support_vectors() <= fast.n_terms());
        for probe in probe_grid() {
            assert_eq!(fast.predict(&probe), dag.predict(&probe), "probe {probe:?}");
        }
    }

    #[test]
    fn dedup_shares_support_vectors_across_pairs() {
        // Every pairwise SVM trains on rows of the same dataset, so the
        // packed matrix must be strictly smaller than the term count
        // whenever two classifiers retain the same row.
        let ds = three_blobs(40);
        let params =
            SvmParams { c: 10.0, kernel: Kernel::Rbf { gamma: 5.0 }, ..Default::default() };
        let dag = DagSvm::fit(&ds, &params);
        let fast = CompiledDag::compile(&dag);
        let total_svs: usize = dag.pairwise_models().iter().map(|m| m.n_support_vectors()).sum();
        assert_eq!(fast.n_terms(), total_svs);
        assert!(
            fast.n_distinct_support_vectors() < total_svs,
            "distinct {} vs terms {}",
            fast.n_distinct_support_vectors(),
            total_svs
        );
    }

    #[test]
    fn wrong_width_is_a_typed_error() {
        let ds = three_blobs(30);
        let tree = DecisionTree::fit(&ds, &CartParams::default());
        let fast = CompiledTree::compile(&tree);
        assert_eq!(fast.try_predict(&[0.5]), Err(DimensionMismatch { expected: 2, got: 1 }));
        let params =
            SvmParams { c: 10.0, kernel: Kernel::Rbf { gamma: 5.0 }, ..Default::default() };
        let mut dag = CompiledDag::compile(&DagSvm::fit(&ds, &params));
        assert_eq!(
            dag.try_predict(&[0.5, 0.5, 0.5]),
            Err(DimensionMismatch { expected: 2, got: 3 })
        );
    }

    #[test]
    fn margins_agree_with_plain_predictions_and_stay_in_unit_range() {
        let ds = three_blobs(50);
        let tree = CompiledTree::compile(&DecisionTree::fit(&ds, &CartParams::default()));
        let params =
            SvmParams { c: 10.0, kernel: Kernel::Rbf { gamma: 5.0 }, ..Default::default() };
        let mut dag = CompiledDag::compile(&DagSvm::fit(&ds, &params));
        for probe in probe_grid() {
            let (tl, tm) = tree.try_predict_with_margin(&probe).unwrap();
            assert_eq!(tl, tree.try_predict(&probe).unwrap(), "tree label {probe:?}");
            assert!((0.0..=1.0).contains(&tm), "tree margin {tm}");
            let (dl, dm) = dag.try_predict_with_margin(&probe).unwrap();
            assert_eq!(dl, dag.try_predict(&probe).unwrap(), "dag label {probe:?}");
            assert!((0.0..=1.0).contains(&dm), "dag margin {dm}");
        }
    }

    #[test]
    fn leaf_purity_margin_is_one_on_separable_data() {
        let mut ds = Dataset::new(1, vec!["no".into(), "yes".into()]);
        for i in 0..20 {
            ds.push(vec![i as f64], usize::from(i >= 10));
        }
        let fast = CompiledTree::compile(&DecisionTree::fit(&ds, &CartParams::default()));
        let (label, margin) = fast.try_predict_with_margin(&[3.0]).unwrap();
        assert_eq!(label, 0);
        assert_eq!(margin, 1.0, "fully separable data grows pure leaves");
    }

    #[test]
    fn margin_errors_match_plain_errors() {
        let ds = three_blobs(30);
        let tree = CompiledTree::compile(&DecisionTree::fit(&ds, &CartParams::default()));
        assert_eq!(
            tree.try_predict_with_margin(&[0.5]),
            Err(DimensionMismatch { expected: 2, got: 1 })
        );
    }

    #[test]
    fn epoch_wrap_invalidates_memo() {
        let ds = three_blobs(30);
        let params =
            SvmParams { c: 10.0, kernel: Kernel::Rbf { gamma: 5.0 }, ..Default::default() };
        let dag = DagSvm::fit(&ds, &params);
        let mut fast = CompiledDag::compile(&dag);
        // Force the memoized path and the wrap on the next begin_predict.
        fast.packed.use_memo = true;
        fast.packed.epoch = u64::MAX;
        for probe in probe_grid().into_iter().take(20) {
            assert_eq!(fast.predict(&probe), dag.predict(&probe));
        }
    }

    #[test]
    fn memo_choice_never_changes_predictions() {
        let ds = three_blobs(40);
        let params =
            SvmParams { c: 10.0, kernel: Kernel::Rbf { gamma: 5.0 }, ..Default::default() };
        let dag = DagSvm::fit(&ds, &params);
        let mut memoized = CompiledDag::compile(&dag);
        memoized.packed.use_memo = true;
        let mut direct = memoized.clone();
        direct.packed.use_memo = false;
        for probe in probe_grid() {
            let want = dag.predict(&probe);
            assert_eq!(memoized.predict(&probe), want, "memo probe {probe:?}");
            assert_eq!(direct.predict(&probe), want, "direct probe {probe:?}");
        }
    }
}
