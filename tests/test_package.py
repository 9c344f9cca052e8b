from __future__ import annotations

import eos


def test_public_names():
    assert sorted(eos.__all__) == sorted([
        "__version__",
        "affinity_blocks", "calibrate_row_alpha", "gaussian_affinity_row",
        "AlphaCalibration", "FlagRule", "calibrate_alpha", "check_flag_rule",
        "detect", "flag_outliers",
        "MetricReport", "SyntheticSpec", "generate", "mahalanobis_chi2_baseline", "precision",
        "run_synth_benchmark", "timing_probe_wstep", "timing_ratios",
        "EosConfig", "ErrorModel", "FitResult", "Termination",
        "effective_sample_size", "fit", "objective", "shannon_entropy", "w_step",
        "Dataset",
        "parse_csv_dataset",
        "CalibrationError", "ContractViolationError", "EosError", "InvalidConfigError",
        "InvalidInputError", "ModelError", "NonConvergenceError", "NumericalError", "ParseError",
        "GaussianModel", "GaussianParams", "SquaredEuclideanModel", "gaussian_error",
        "mahalanobis_squared", "squared_euclidean_error", "weighted_gaussian_mle",
        "ClassifierLossModel", "ClassifierParams", "MislabelExperimentConfig", "SplitOutcome",
        "auc", "classifier_loss_error", "decision_function", "inject_label_flips",
        "mislabel_experiment", "predict_proba", "robust_fit", "select_alpha",
        "summarize_mislabel", "train_weighted_classifier",
    ])
    assert len(eos.__all__) == 59
    for name in eos.__all__:
        assert hasattr(eos, name), name
