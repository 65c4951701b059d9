"""Deviation arithmetic, the one-class SVM against the QP oracle, and the
static-threshold detector."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import canids
from canids import model_io
from canids.detector import (
    OcsvmModel,
    StaticThreshold,
    Scorer,
    check_pairing,
    decision_values,
    deviation_matrix,
    fit_ocsvm,
    fit_static_threshold,
    load_detector,
    rbf_kernel,
    save_detector,
    static_scores,
)
from oracles import qp_ocsvm_oracle, rbf_oracle


class TestDeviation:
    def test_diff_is_signed(self):
        out = deviation_matrix(np.array([[0.5, 0.2]]), np.array([[0.3, 0.4]]),
                               "Diff")
        assert np.allclose(out, [[0.2, -0.2]])

    def test_scalar_reductions_use_absolute_values(self):
        pred = np.array([[0.5, 0.2]])
        actual = np.array([[0.3, 0.4]])
        assert deviation_matrix(pred, actual, "Sum")[0, 0] == pytest.approx(0.4)
        assert deviation_matrix(pred, actual, "Avg")[0, 0] == pytest.approx(0.2)
        assert deviation_matrix(pred, actual, "Max")[0, 0] == pytest.approx(0.2)

    def test_max_picks_the_dominant_signal(self):
        out = deviation_matrix(np.array([[1.0, 0.0, 0.0]]),
                               np.array([[0.0, 0.1, -0.1]]), "Max")
        assert out[0, 0] == pytest.approx(1.0)

    def test_matrix_shapes(self):
        rng = np.random.default_rng(0)
        P = rng.normal(size=(6, 3))
        A = rng.normal(size=(6, 3))
        assert deviation_matrix(P, A, "Diff").shape == (6, 3)
        for mode in ("Sum", "Avg", "Max"):
            assert deviation_matrix(P, A, mode).shape == (6, 1)

    def test_matrix_rows_agree_with_single_calls(self):
        # each row is that message's own deviation: the same as a
        # one-message call and as the per-row definition
        rng = np.random.default_rng(1)
        P = rng.normal(size=(4, 2))
        A = rng.normal(size=(4, 2))
        reduce = {"Sum": np.sum, "Avg": np.mean, "Max": np.max}
        for mode in ("Diff", "Sum", "Avg", "Max"):
            M = deviation_matrix(P, A, mode)
            for i in range(4):
                single = deviation_matrix(P[i: i + 1], A[i: i + 1], mode)
                assert np.array_equal(M[i: i + 1], single)
                want = (P[i] - A[i] if mode == "Diff"
                        else reduce[mode](np.abs(P[i] - A[i])))
                assert np.allclose(M[i], want)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            deviation_matrix(np.zeros((1, 2)), np.zeros((1, 2)), "Median")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            deviation_matrix(np.zeros((1, 2)), np.zeros((1, 3)), "Diff")
        with pytest.raises(ValueError):
            deviation_matrix(np.zeros((2, 2)), np.zeros((3, 2)), "Diff")
        with pytest.raises(ValueError):
            deviation_matrix(np.zeros(2), np.zeros(2), "Diff")


class TestRbfKernel:
    def test_diagonal_is_one(self):
        X = np.random.default_rng(2).normal(size=(5, 3))
        K = rbf_kernel(X, X, gamma=0.7)
        assert np.allclose(np.diag(K), 1.0)
        assert np.allclose(K, K.T)

    def test_hand_value(self):
        K = rbf_kernel(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]),
                       gamma=0.5)
        assert K[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(7, 2))
        B = rng.normal(size=(4, 2))
        assert np.allclose(rbf_kernel(A, B, 1.3), rbf_oracle(A, B, 1.3),
                           atol=1e-12)


def _full_alpha(model: OcsvmModel, X: np.ndarray) -> np.ndarray:
    """Scatter the model's support alphas back onto the training rows."""
    full = np.zeros(len(X))
    j = 0
    for i, row in enumerate(X):
        if j < len(model.support_vectors) and np.array_equal(
                row, model.support_vectors[j]):
            full[i] = model.alphas[j]
            j += 1
    assert j == len(model.support_vectors), "support vectors not matched"
    return full


class TestOcsvmVsOracle:
    @pytest.mark.parametrize("seed,n,d,nu", [
        (0, 20, 2, 0.1),
        (1, 25, 3, 0.3),
        (2, 15, 1, 0.5),
        (3, 24, 2, 0.3),
        (4, 18, 3, 0.1),
    ])
    def test_dual_matches_qp_oracle(self, seed, n, d, nu):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        gamma = 1.0 / d
        model = fit_ocsvm(X, nu=nu, gamma=gamma, tol=1e-6)
        assert model.converged
        K = rbf_oracle(X, X, gamma)
        ref = qp_ocsvm_oracle(K, nu)
        assert ref is not None, "oracle failed to certify"
        alpha_ref, rho_ref = ref
        got = _full_alpha(model, X)
        assert np.max(np.abs(got - alpha_ref)) < 1e-3
        assert abs(model.rho - rho_ref) < 1e-3

        grid = np.random.default_rng(1000 + seed).uniform(-3, 3, size=(100, d))
        f_model = decision_values(model, grid)
        f_ref = rbf_oracle(grid, X, gamma) @ alpha_ref - rho_ref
        assert np.array_equal(f_model < 0, f_ref < 0)

    def test_deterministic_fit(self):
        X = np.random.default_rng(5).normal(size=(20, 2))
        a = fit_ocsvm(X, nu=0.2)
        b = fit_ocsvm(X, nu=0.2)
        assert np.array_equal(a.alphas, b.alphas)
        assert a.rho == b.rho


class TestNuProperty:
    def test_outlier_and_sv_fractions(self):
        n, nu = 200, 0.1
        X = np.random.default_rng(6).normal(size=(n, 2))
        model = fit_ocsvm(X, nu=nu, tol=1e-5)
        outlier_frac = float(np.mean(decision_values(model, X) < 0))
        sv_frac = len(model.support_vectors) / n
        assert outlier_frac <= nu + 1.0 / n
        assert sv_frac >= nu - 1.0 / n


class TestOcsvmBehavior:
    def test_identical_points_are_normal_far_points_anomalous(self):
        X = np.zeros((10, 2))
        model = fit_ocsvm(X, nu=0.5, gamma=1.0)
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        assert (decision_values(model, pts) < 0.0).tolist() == [0, 1]

    def test_boundary_value_is_normal(self):
        # two coincident support vectors, rho exactly at the kernel value
        model = OcsvmModel(support_vectors=np.zeros((2, 1)),
                           alphas=np.array([0.5, 0.5]), rho=1.0,
                           gamma=1.0, nu=0.5, n_train=2)
        assert decision_values(model, np.zeros((1, 1)))[0] == 0.0
        assert (decision_values(model, np.array([[0.0], [5.0]]))
                < 0.0).tolist() == [0, 1]

    def test_gamma_defaults_to_reciprocal_dimension(self):
        X = np.random.default_rng(7).normal(size=(12, 4))
        model = fit_ocsvm(X, nu=0.3)
        assert model.gamma == pytest.approx(0.25)

    def test_decision_values_match_single_point_calls(self):
        X = np.random.default_rng(8).normal(size=(15, 2))
        model = fit_ocsvm(X, nu=0.2)
        pts = np.random.default_rng(9).normal(size=(6, 2))
        vec = decision_values(model, pts)
        for i in range(6):
            one = decision_values(model, pts[i][None])
            assert one.shape == (1,)
            assert vec[i] == pytest.approx(one[0], abs=1e-15)

    def test_max_iter_exhaustion_warns(self):
        X = np.random.default_rng(10).normal(size=(30, 2))
        with pytest.warns(RuntimeWarning, match="KKT gap"):
            model = fit_ocsvm(X, nu=0.3, tol=1e-12, max_iter=3)
        assert not model.converged
        assert model.kkt_gap > 0

    def test_input_validation(self):
        X = np.random.default_rng(11).normal(size=(10, 2))
        with pytest.raises(ValueError, match="nu"):
            fit_ocsvm(X, nu=0.0)
        with pytest.raises(ValueError, match="nu"):
            fit_ocsvm(X, nu=1.5)
        with pytest.raises(ValueError, match="gamma"):
            fit_ocsvm(X, gamma=-1.0)
        with pytest.raises(ValueError, match="at least 2"):
            fit_ocsvm(X[:1])
        bad = X.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_ocsvm(bad)

    def test_model_invariants_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            OcsvmModel(support_vectors=np.zeros((2, 1)),
                       alphas=np.array([0.5, 0.6]), rho=0.0,
                       gamma=1.0, nu=0.5, n_train=2)
        with pytest.raises(ValueError, match="outside"):
            OcsvmModel(support_vectors=np.zeros((2, 1)),
                       alphas=np.array([1.2, -0.2]), rho=0.0,
                       gamma=1.0, nu=0.5, n_train=2)

    @pytest.mark.parametrize("field, value, match", [
        ("support_vectors", np.array([[0.0], [np.nan]]), "finite"),
        ("alphas", np.array([0.5, np.nan]), "finite"),
        ("gamma", np.nan, "gamma"),
        ("gamma", np.inf, "gamma"),
    ])
    def test_non_finite_fields_rejected(self, field, value, match):
        # a NaN anywhere in the kernel sum makes every score NaN, and a NaN
        # score flags nothing
        good = dict(support_vectors=np.zeros((2, 1)),
                    alphas=np.array([0.5, 0.5]), rho=0.0, gamma=1.0, nu=0.5,
                    n_train=2)
        with pytest.raises(ValueError, match=match):
            OcsvmModel(**{**good, field: value})


class TestStaticThreshold:
    def test_percentile_on_row_max_abs(self):
        devs = np.array([[0.1, -0.05], [0.0, 0.2], [-0.3, 0.1], [0.4, 0.0]])
        st = fit_static_threshold(devs, percentile=100.0)
        assert st.threshold == pytest.approx(0.4)

    def test_scores_and_flags_orientation(self):
        st = StaticThreshold(threshold=0.4)
        devs = np.array([[0.5], [0.4], [0.1]])
        scores = static_scores(st, devs)
        assert np.allclose(scores, [-0.1, 0.0, 0.3])
        # strict: exactly at the threshold is still normal
        assert (scores < 0).tolist() == [True, False, False]

    def test_all_zero_deviations_floor_the_threshold(self):
        st = fit_static_threshold(np.zeros((50, 3)))
        assert st.threshold == pytest.approx(1e-12)

    def test_percentile_range_enforced(self):
        devs = np.ones((10, 1))
        with pytest.raises(ValueError, match="percentile"):
            fit_static_threshold(devs, percentile=50.0)
        with pytest.raises(ValueError, match="percentile"):
            fit_static_threshold(devs, percentile=100.1)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            StaticThreshold(threshold=0.0)
        with pytest.raises(ValueError):
            StaticThreshold(threshold=float("nan"))


class TestDetectorSerialization:
    def test_ocsvm_round_trip(self, tmp_path):
        X = np.random.default_rng(12).normal(size=(18, 2))
        model = fit_ocsvm(X, nu=0.2)
        path = tmp_path / "d.canids"
        save_detector(model, "Diff", path)
        loaded, variant = load_detector(path)
        assert variant == "Diff"
        assert isinstance(loaded, OcsvmModel)
        assert np.array_equal(loaded.support_vectors, model.support_vectors)
        assert np.array_equal(loaded.alphas, model.alphas)
        assert loaded.rho == model.rho
        assert loaded.gamma == model.gamma
        assert loaded.nu == model.nu
        assert loaded.n_train == model.n_train

    @pytest.mark.parametrize("key, value", [
        ("converged", "no"), ("n_train", 18.9), ("rho", "0.5")])
    def test_mistyped_header_field_rejected(self, tmp_path, key, value):
        # each of these used to load, coerced to True, 18 and 0.5
        path = tmp_path / "d.canids"
        X = np.random.default_rng(12).normal(size=(18, 2))
        save_detector(fit_ocsvm(X, nu=0.2), "Diff", path)
        meta, blocks = model_io.load_arrays(path, expected_type="detector")
        model_io.save_arrays(path, "detector", {**meta, key: value}, blocks)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: detector.{key}: expected")):
            load_detector(path)

    def test_static_round_trip(self, tmp_path):
        st = StaticThreshold(threshold=0.123456789)
        path = tmp_path / "st.canids"
        save_detector(st, "ST", path)
        loaded, variant = load_detector(path)
        assert variant == "ST"
        assert isinstance(loaded, StaticThreshold)
        assert loaded.threshold == st.threshold

    def test_unknown_variant_rejected(self, tmp_path):
        st = StaticThreshold(threshold=1.0)
        with pytest.raises(ValueError, match="variant"):
            save_detector(st, "Median", tmp_path / "x.canids")


def _svm(dim: int) -> OcsvmModel:
    X = np.random.default_rng(13).normal(size=(12, dim))
    return fit_ocsvm(X, nu=0.3)


class TestPairing:
    @pytest.mark.parametrize("variant, dim, k, match", [
        ("ST", 2, 2, "StaticThreshold"),
        ("Diff", None, 2, "OcsvmModel"),
        ("Diff", 1, 2, "dimension"),
        ("Sum", 2, 2, "dimension"),
        ("Max", 2, None, "dimension"),
        ("Median", 1, 2, "variant"),
    ])
    def test_mismatches_rejected(self, variant, dim, k, match):
        det = StaticThreshold(1.0) if dim is None else _svm(dim)
        with pytest.raises(ValueError, match=match):
            check_pairing(det, variant, k)

    @pytest.mark.parametrize("variant, dim, k", [
        ("ST", None, 3), ("Diff", 3, 3), ("Diff", 3, None), ("Sum", 1, 3),
        ("Avg", 1, 3), ("Max", 1, None),
    ])
    def test_matches_accepted(self, variant, dim, k):
        det = StaticThreshold(1.0) if dim is None else _svm(dim)
        check_pairing(det, variant, k)

    def test_save_rejects_threshold_for_diff(self, tmp_path):
        path = tmp_path / "x.canids"
        with pytest.raises(ValueError, match="OcsvmModel"):
            save_detector(StaticThreshold(threshold=1.0), "Diff", path)
        assert not path.exists()

    def test_load_rejects_sum_file_with_2d_svm(self, tmp_path):
        path = tmp_path / "x.canids"
        save_detector(_svm(2), "Diff", path)
        meta, blocks = model_io.load_arrays(path, expected_type="detector")
        model_io.save_arrays(path, "detector", {**meta, "variant": "Sum"},
                             blocks)
        with pytest.raises(ValueError, match="dimension"):
            load_detector(path)


class TestScorer:
    @pytest.mark.parametrize("variant", ["ST", "Diff", "Sum", "Avg", "Max"])
    def test_scores_follow_the_chain(self, variant):
        rng = np.random.default_rng(14)
        preds = rng.normal(size=(9, 2))
        Y = rng.normal(size=(9, 2))
        # ST thresholds the max-absolute deviation
        mode = "Max" if variant == "ST" else variant
        devs = deviation_matrix(preds, Y, mode)
        assert np.array_equal(deviation_matrix(preds, Y, variant), devs)
        if variant == "ST":
            det = StaticThreshold(threshold=0.5)
            expected = static_scores(det, devs)
        else:
            det = _svm(devs.shape[1])
            expected = decision_values(det, devs)
        assert np.array_equal(Scorer(det, variant, 2).scores(preds, Y),
                              expected)

    def test_pairing_checked_at_construction(self):
        with pytest.raises(ValueError, match="dimension"):
            Scorer(_svm(2), "Diff", 3)


def test_importing_the_detector_leaves_the_predictor_out():
    # scoring takes predictions as input and never runs the model itself
    src = str(Path(canids.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, canids.detector; "
            "print('canids.predictor' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
