"""Shrinkage leave-one-out linear predictor and its exact bound."""

import numpy as np
import pytest

from mlsa.generators import make_linear_instance
from mlsa.linear import (
    fit_transductive_vaw,
    load_design,
    vaw_certificate,
    verify_pinv_identity,
)


def test_identity_design_closed_form():
    n = 5
    X = np.eye(n)
    y = np.arange(1.0, n + 1.0)
    result = fit_transductive_vaw(X, y)
    assert np.allclose(result.beta_hat, y)
    assert result.fit_sq_sum == pytest.approx(0.0)
    assert np.allclose(result.leverages, np.ones(n))
    # dropping x_i y_i zeroes coordinate i, so the LOO residual is y_i itself
    assert result.loo_sq_sum == pytest.approx(float(np.sum(y**2)))
    cert = vaw_certificate(result)
    assert cert.rhs == pytest.approx(2.0 * n**2 * n)  # 2 m^2 rank, m^2 = n^2
    assert cert.passed


def test_duplicated_direction_hand_computed():
    # x_1 = x_2 = e_1 in R^2: A = 2 e_1 e_1', pinv(A) = e_1 e_1' / 2
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    y = np.array([1.0, 3.0])
    result = fit_transductive_vaw(X, y)
    assert result.rank == 1
    assert np.allclose(result.leverages, [0.5, 0.5])
    assert np.allclose(result.beta_hat, [2.0, 0.0])
    # beta_minus_1 = pinv(A) x_2 y_2 = (1.5, 0)
    assert np.allclose(result.beta_minus[0], [1.5, 0.0])
    assert np.allclose(result.beta_minus[1], [0.5, 0.0])


def test_zero_responses_zero_everything():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 3))
    result = fit_transductive_vaw(X, np.zeros(6))
    assert result.loo_sq_sum == 0.0
    assert result.fit_sq_sum == 0.0
    assert result.m_sq == 0.0
    assert vaw_certificate(result).passed  # 0 <= 0


def test_residual_identity_row_by_row():
    rng = np.random.default_rng(1)
    X, y = make_linear_instance(15, 4, rng)
    result = fit_transductive_vaw(X, y)
    loo_res = y - np.einsum("ij,ij->i", X, result.beta_minus)
    fit_res = y - X @ result.beta_hat
    assert np.allclose(loo_res, fit_res + result.leverages * y, atol=1e-9)


@pytest.mark.parametrize("rank_deficient", [False, True])
def test_leverages_and_bound_random_instances(rank_deficient):
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 8))
        X, y = make_linear_instance(n, d, rng, rank_deficient=rank_deficient)
        result = fit_transductive_vaw(X, y)
        assert np.all(result.leverages >= -1e-12)
        assert np.all(result.leverages <= 1.0 + 1e-12)
        assert float(result.leverages.sum()) == pytest.approx(result.rank, abs=1e-8)
        assert vaw_certificate(result).slack >= -1e-9


def test_wide_design_rank_bounded_by_n():
    rng = np.random.default_rng(3)
    X, y = make_linear_instance(4, 9, rng)
    result = fit_transductive_vaw(X, y)
    assert result.rank <= 4
    assert vaw_certificate(result).passed


def test_pinv_identity_full_rank():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 3))
    assert verify_pinv_identity(X).passed


def test_pinv_identity_rank_deficient():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((10, 3))
    X = np.column_stack([X, X[:, 0]])  # duplicated column
    cert = verify_pinv_identity(X)
    assert cert.passed


def test_pinv_identity_zero_matrix():
    cert = verify_pinv_identity(np.zeros((4, 2)))
    assert cert.name == "pinv-identity"
    assert cert.lhs == 0.0 and cert.rhs == 1e-10 and cert.tolerance == 0.0
    assert cert.passed


def test_hat_matrix_idempotent_and_symmetric():
    rng = np.random.default_rng(6)
    for rank_deficient in (False, True):
        X, _ = make_linear_instance(12, 5, rng, rank_deficient=rank_deficient)
        hat = X @ np.linalg.pinv(X)
        assert np.allclose(hat, hat.T, atol=1e-8)
        assert np.allclose(hat @ hat, hat, atol=1e-8)


def test_input_validation():
    with pytest.raises(ValueError):
        fit_transductive_vaw(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        fit_transductive_vaw(np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("where", ["X", "y"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_input_rejected(where, value):
    X, y = np.eye(3), np.ones(3)
    (X if where == "X" else y)[1] = value
    with pytest.raises(ValueError, match="must be finite"):
        fit_transductive_vaw(X, y)


def test_load_design_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    X, y = make_linear_instance(8, 3, rng)
    path = tmp_path / "design.txt"
    np.savetxt(path, np.column_stack([X, y]), fmt="%.17g")
    X2, y2 = load_design(path)
    assert np.allclose(X2, X) and np.allclose(y2, y)
