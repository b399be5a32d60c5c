"""Shrinkage leave-one-out linear prediction with the full-sample Gram matrix.

The estimator drops sample i from the linear term but keeps the full Gram
matrix A = X'X: beta_minus_i = pinv(A) sum_{j != i} x_j y_j.  Its LOO residual
then differs from the plain fit residual by exactly leverage_i * y_i, and since
leverages lie in [0, 1] the total squared LOO error is at most twice the fit
error plus 2 max(y^2) rank(A).  This module reproduces that bound exactly and
serves as a regression baseline; it does not use level sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audit import BoundCertificate

__all__ = [
    "LinearLooResult",
    "fit_transductive_vaw",
    "verify_pinv_identity",
    "vaw_certificate",
    "load_design",
]


@dataclass(frozen=True)
class LinearLooResult:
    beta_hat: np.ndarray  # pinv(A) X' y
    beta_minus: np.ndarray  # n x d, row i drops sample i from the linear term
    leverages: np.ndarray  # x_i' pinv(A) x_i
    loo_sq_sum: float
    fit_sq_sum: float
    m_sq: float  # max y_i^2
    rank: int


def _default_svd_tol(n: int, d: int) -> float:
    return max(n, d) * np.finfo(float).eps


def fit_transductive_vaw(X: np.ndarray, y: np.ndarray) -> LinearLooResult:
    """Fit the full-sample predictor and all shrinkage leave-one-out variants.

    The pseudoinverse of A comes from the SVD of X with singular values below
    max(n, d) * eps * sigma_max treated as zero, so rank deficiency needs no
    special handling.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("X must be a nonempty n x d matrix")
    if y.shape != (X.shape[0],):
        raise ValueError("y must have one entry per row of X")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("X and y must be finite")
    svd_tol = _default_svd_tol(*X.shape)
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    keep = s > svd_tol * (s[0] if s.size else 0.0)
    rank = int(keep.sum())
    v = vt[keep].T
    inv_s2 = 1.0 / s[keep] ** 2
    a_pinv = (v * inv_s2) @ v.T
    beta_hat = a_pinv @ (X.T @ y)
    xa = X @ a_pinv  # row i is x_i' pinv(A)
    leverages = np.einsum("ij,ij->i", xa, X)
    beta_minus = beta_hat[None, :] - xa * y[:, None]
    fit_residuals = y - X @ beta_hat
    loo_residuals = y - np.einsum("ij,ij->i", X, beta_minus)
    return LinearLooResult(
        beta_hat=beta_hat,
        beta_minus=beta_minus,
        leverages=leverages,
        loo_sq_sum=float(np.sum(loo_residuals**2)),
        fit_sq_sum=float(np.sum(fit_residuals**2)),
        m_sq=float(np.max(y**2)),
        rank=rank,
    )


#: the largest entrywise difference ``verify_pinv_identity`` accepts
_PINV_TOL = 1e-10


def verify_pinv_identity(X: np.ndarray) -> BoundCertificate:
    """Check pinv(X) = pinv(X'X) X' entrywise, via two independent routes.

    Both sides are computed with numpy's pseudoinverse on different matrices
    (X itself versus the Gram matrix), so agreement is a genuine consistency
    check rather than an algebraic tautology.  The certificate
    ``pinv-identity`` holds the largest entrywise difference against
    ``_PINV_TOL``, compared with no further tolerance.
    """
    X = np.asarray(X, dtype=float)
    rcond = _default_svd_tol(*X.shape)
    x_pinv = np.linalg.pinv(X, rcond=rcond)
    a_pinv = np.linalg.pinv(X.T @ X, rcond=rcond, hermitian=True)
    diff = float(np.max(np.abs(x_pinv - a_pinv @ X.T))) if X.size else 0.0
    return BoundCertificate("pinv-identity", lhs=diff, rhs=_PINV_TOL, tolerance=0.0)


def load_design(path) -> tuple[np.ndarray, np.ndarray]:
    """Load whitespace-delimited text with columns x_1 .. x_d, y."""
    data = np.loadtxt(path, dtype=float, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("need at least one covariate column plus the response column")
    return data[:, :-1], data[:, -1]


def vaw_certificate(result: LinearLooResult) -> BoundCertificate:
    """Certify loo_sq_sum <= 2 fit_sq_sum + 2 m_sq rank(A)."""
    rhs = 2.0 * result.fit_sq_sum + 2.0 * result.m_sq * result.rank
    return BoundCertificate(
        name="linear-shrinkage-loo-bound",
        lhs=result.loo_sq_sum,
        rhs=rhs,
        components={
            "fit_sq_sum": result.fit_sq_sum,
            "m_sq": result.m_sq,
            "rank": result.rank,
        },
    )
