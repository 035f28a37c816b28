//! Property-based tests for the ML substrate.

use iustitia_ml::cart::{CartParams, DecisionTree};
use iustitia_ml::compiled::{CompiledDag, CompiledTree};
use iustitia_ml::dataset::Dataset;
use iustitia_ml::metrics::ConfusionMatrix;
use iustitia_ml::multiclass::DagSvm;
use iustitia_ml::svm::{BinarySvm, Kernel, SvmParams};
use iustitia_ml::{cross_validate_with, Classifier, Parallelism};
use proptest::prelude::*;

/// Builds a dataset from arbitrary rows, assigning labels by a simple
/// threshold rule so it is learnable.
fn dataset_from_rows(rows: &[(f64, f64)]) -> Dataset {
    let mut ds = Dataset::new(2, vec!["a".into(), "b".into()]);
    for &(x, y) in rows {
        ds.push(vec![x, y], usize::from(x + y > 1.0));
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_prediction_is_always_a_valid_class(
        rows in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 10..200),
        probe in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let ds = dataset_from_rows(&rows);
        // Ensure both classes exist; otherwise the tree is a single leaf,
        // which is also fine.
        let tree = DecisionTree::fit(&ds, &CartParams::default());
        let label = tree.predict(&[probe.0, probe.1]);
        prop_assert!(label < 2);
    }

    #[test]
    fn tree_training_accuracy_beats_majority_class(
        rows in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 30..300),
    ) {
        let ds = dataset_from_rows(&rows);
        let counts = ds.class_counts();
        let majority = *counts.iter().max().expect("nonempty") as f64 / ds.len() as f64;
        let tree = DecisionTree::fit(&ds, &CartParams::default());
        prop_assert!(tree.accuracy_on(&ds) + 1e-9 >= majority);
    }

    #[test]
    fn pruning_sequence_is_monotone(
        rows in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 30..200),
    ) {
        let ds = dataset_from_rows(&rows);
        let tree = DecisionTree::fit(&ds, &CartParams::default());
        let seq = tree.pruning_sequence();
        for w in seq.windows(2) {
            prop_assert!(w[1].n_leaves() < w[0].n_leaves());
            prop_assert!(w[1].n_nodes() < w[0].n_nodes());
        }
        prop_assert_eq!(seq.last().expect("nonempty").n_leaves(), 1);
    }

    #[test]
    fn stratified_folds_partition_the_dataset(
        n_per_class in 4usize..40,
        k in 2usize..6,
        seed in any::<u64>(),
    ) {
        let mut ds = Dataset::new(1, vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..n_per_class {
            for c in 0..3 {
                ds.push(vec![i as f64 + c as f64 * 100.0], c);
            }
        }
        prop_assume!(k <= ds.len());
        let folds = ds.stratified_folds(k, seed);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..ds.len()).collect();
        prop_assert_eq!(all, expected);
        // Fold sizes are balanced within one sample per class.
        let sizes: Vec<usize> = folds.iter().map(|f| f.len()).collect();
        let min = sizes.iter().min().expect("nonempty");
        let max = sizes.iter().max().expect("nonempty");
        prop_assert!(max - min <= 3);
    }

    #[test]
    fn balanced_subsample_never_exceeds_request(
        n_per_class in 1usize..50,
        request in 1usize..80,
        seed in any::<u64>(),
    ) {
        let mut ds = Dataset::new(1, vec!["a".into(), "b".into()]);
        for i in 0..n_per_class {
            ds.push(vec![i as f64], 0);
            ds.push(vec![i as f64], 1);
        }
        let sub = ds.balanced_subsample(request, seed);
        for &c in &sub.class_counts() {
            prop_assert!(c <= request.min(n_per_class));
            prop_assert_eq!(c, request.min(n_per_class));
        }
    }

    #[test]
    fn confusion_matrix_accuracy_bounded(
        pairs in proptest::collection::vec((0usize..3, 0usize..3), 1..200),
    ) {
        let mut cm = ConfusionMatrix::new(3);
        for &(a, p) in &pairs {
            cm.record(a, p);
        }
        prop_assert!((0.0..=1.0).contains(&cm.accuracy()));
        prop_assert_eq!(cm.total(), pairs.len() as u64);
        // Row rates sum to 1 for nonempty rows.
        for actual in 0..3 {
            let row: f64 = (0..3).map(|p| cm.misclassification_rate(actual, p)).sum();
            if pairs.iter().any(|&(a, _)| a == actual) {
                prop_assert!((row - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn svm_decision_is_sign_consistent(
        sep in 0.05f64..0.4,
        n in 10usize..60,
    ) {
        // Two linearly separated 1-D blobs; SVM must classify its own
        // training data correctly when separable with margin.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let off = (i as f64) / (n as f64) * 0.1;
            xs.push(vec![0.2 + off]);
            ys.push(false);
            xs.push(vec![0.8 + sep + off]);
            ys.push(true);
        }
        let params = SvmParams { c: 100.0, kernel: Kernel::Linear, ..Default::default() };
        let svm = BinarySvm::fit(&xs, &ys, &params);
        for (x, &y) in xs.iter().zip(&ys) {
            prop_assert_eq!(svm.predict(x), y);
        }
        // Decision values change monotonically along the axis.
        prop_assert!(svm.decision_value(&[0.0]) < svm.decision_value(&[2.0]));
    }

    #[test]
    fn rbf_kernel_bounded_and_symmetric(
        x in proptest::collection::vec(-10.0f64..10.0, 1..8),
        gamma in 0.01f64..100.0,
    ) {
        let y: Vec<f64> = x.iter().map(|v| v + 0.5).collect();
        let k = Kernel::Rbf { gamma };
        let kxy = k.eval(&x, &y);
        let kyx = k.eval(&y, &x);
        prop_assert!((kxy - kyx).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&kxy));
        prop_assert!((k.eval(&x, &x) - 1.0).abs() < 1e-12);
    }
}

/// Builds a learnable 3-class dataset from arbitrary rows, with anchor
/// rows so every class is present (DAGSVM needs samples of each pair).
fn three_class_dataset(rows: &[(f64, f64)]) -> Dataset {
    let mut ds = Dataset::new(2, vec!["a".into(), "b".into(), "c".into()]);
    ds.push(vec![0.1, 0.1], 0);
    ds.push(vec![0.5, 0.5], 1);
    ds.push(vec![0.9, 0.9], 2);
    for &(x, y) in rows {
        let label = if x + y < 0.7 {
            0
        } else if x + y < 1.3 {
            1
        } else {
            2
        };
        ds.push(vec![x, y], label);
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn compiled_tree_matches_boxed_on_random_vectors(
        rows in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 20..150),
        probes in proptest::collection::vec((-0.5f64..1.5, -0.5f64..1.5), 1..40),
    ) {
        let ds = dataset_from_rows(&rows);
        let tree = DecisionTree::fit(&ds, &CartParams::default());
        let fast = CompiledTree::compile(&tree);
        for (x, y) in probes {
            prop_assert_eq!(fast.predict(&[x, y]), tree.predict(&[x, y]));
        }
    }

    #[test]
    fn compiled_dag_matches_boxed_on_random_vectors(
        rows in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 12..50),
        probes in proptest::collection::vec((-0.5f64..1.5, -0.5f64..1.5), 1..25),
    ) {
        let ds = three_class_dataset(&rows);
        let params =
            SvmParams { c: 10.0, kernel: Kernel::Rbf { gamma: 5.0 }, ..Default::default() };
        let dag = DagSvm::fit(&ds, &params);
        let mut fast = CompiledDag::compile(&dag);
        for (x, y) in probes {
            prop_assert_eq!(fast.predict(&[x, y]), dag.predict(&[x, y]));
        }
    }

    #[test]
    fn parallel_svm_fit_matches_serial_on_random_data(
        rows in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 10..40),
    ) {
        let xs: Vec<Vec<f64>> = rows.iter().map(|&(x, y)| vec![x, y]).collect();
        let ys: Vec<bool> = rows.iter().map(|&(x, y)| x + y > 1.0).collect();
        let serial = SvmParams {
            c: 10.0,
            kernel: Kernel::Rbf { gamma: 5.0 },
            parallelism: Parallelism::serial(),
        };
        let parallel = SvmParams { parallelism: Parallelism::fixed(3), ..serial };
        prop_assert_eq!(BinarySvm::fit(&xs, &ys, &serial), BinarySvm::fit(&xs, &ys, &parallel));
    }

    #[test]
    fn parallel_crossval_matches_serial_on_random_data(
        rows in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 30..120),
        seed in any::<u64>(),
    ) {
        let ds = dataset_from_rows(&rows);
        let train = |fold: &Dataset| DecisionTree::fit(fold, &CartParams::default());
        let serial = cross_validate_with(&ds, 5, seed, Parallelism::serial(), train);
        let parallel = cross_validate_with(&ds, 5, seed, Parallelism::fixed(4), train);
        prop_assert_eq!(serial, parallel);
    }
}

proptest! {
    // Few cases: the parallel split search only engages at >=512
    // samples, so each case trains on a deliberately large dataset.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_cart_fit_matches_serial_on_random_data(
        rows in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 520..640),
    ) {
        let ds = dataset_from_rows(&rows);
        let serial =
            CartParams { parallelism: Parallelism::serial(), ..CartParams::default() };
        let parallel = CartParams { parallelism: Parallelism::fixed(4), ..serial };
        prop_assert_eq!(
            DecisionTree::fit(&ds, &serial),
            DecisionTree::fit(&ds, &parallel)
        );
    }
}
