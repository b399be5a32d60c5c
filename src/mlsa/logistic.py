"""Logistic regression over an L2 parameter ball, with volumetric level sets.

The hypothesis class is the ball of radius r in R^d, covariates are bounded by
R in Euclidean norm, and the per-point loss is -log sigmoid(y x' theta).  Level
sets live inside the enlarged set H_A of parameters whose squared A-distance to
the ball is at most rR, where A is the empirical second-moment matrix; their
size is measured by the uniform distribution mu_B on the reference ellipsoid
B = {theta : |A^{1/2} theta| <= R_B} with R_B = sqrt(n) rR + 2 sqrt(rR).

H_A membership is decided by two closed-form bounds on the squared
A-distance, lambda_min (|theta| - r)^2 below and the radial projection's
(1 - r/|theta|)^2 theta'A theta above; only draws whose bounds fall within a
narrow band around the threshold go to the bisection of
``min_ball_distance_sq``, which stays the exact arbiter, so the mask equals
bisecting every draw.  The screen and the fill of the member draws' loss
tables run in fixed blocks on ``core._for_each_block``, which shares them out
between threads when there are at least ``core._PARALLEL_ROW_ENTRIES`` draws.
Every sum or norm over the d columns of a (draws, d) array, in the screen, the
bisection and the draws' normalisation, goes through ``_row_sums`` and
``_row_norms``: one vectorised pass per column instead of numpy's one reduction
call per row, with numpy's bits.

Measure and aggregate estimates use plain rejection sampling from mu_B with
common random numbers across every (tolerance, index) cell, which makes the
accepted sets exactly nested and lets monotonicity and sandwich checks run
deterministically.  The grid gap is delta = 1 + rR + sqrt(rR / lambda_min(A)) R,
an upper bound for the per-point loss on H_A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .audit import BoundCertificate, _check_grid, _no_violations, _sandwich_violations
from .core import (
    NUMERIC_TOL,
    MlsaOutput,
    ToleranceGrid,
    _for_each_block,
    _loo_level_sums,
    _lower_medians,
)

__all__ = [
    "LogisticProblem",
    "LogisticGeometry",
    "MIN_ACCEPTED",
    "McConfig",
    "McWorkspace",
    "LogisticRun",
    "InsufficientAcceptanceError",
    "ErmConvergenceError",
    "fit_erm",
    "build_geometry",
    "min_ball_distance_sq",
    "sample_muB",
    "logistic_grid",
    "run_mlsa_logistic",
    "crn_sandwich_report",
    "verify_ellipsoid_containment",
    "verify_volume_lower_bound",
    "verify_logistic_bound",
    "geometry_report",
    "load_logistic_problem",
]

_GRAD_VACUOUS = 1e-6  # below this gradient norm the minimizer is treated as interior


class InsufficientAcceptanceError(RuntimeError):
    """Too few Monte-Carlo samples accepted to trust an estimate."""


class ErmConvergenceError(RuntimeError):
    """Projected gradient descent did not reach the requested tolerance."""


@dataclass(frozen=True)
class LogisticProblem:
    """Covariates with bounded norm, labels in {-1, +1}, and the ball radius r."""

    covariates: np.ndarray
    labels: np.ndarray
    r: float
    R: float

    def __post_init__(self) -> None:
        x = np.asarray(self.covariates, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("covariates must form a nonempty n x d matrix")
        if y.shape != (x.shape[0],):
            raise ValueError("labels must be one per covariate row")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates must be finite")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must lie in {-1, +1}")
        if not (math.isfinite(self.r) and math.isfinite(self.R)):
            raise ValueError("radii r and R must be finite")
        if not (self.r > 0 and self.R > 0):
            raise ValueError("radii r and R must be positive")
        norms = _row_norms(x)
        if np.any(norms > self.R + NUMERIC_TOL):
            raise ValueError(
                f"covariate norm {norms.max():.6g} exceeds declared bound R={self.R}"
            )
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]


def _row_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)`` of a C-contiguous (rows, d) array with the same bits,
    one pass per column, not one reduction call per row.

    numpy adds a row of fewer than 8 entries left to right, starting from 0.0
    (so a row of -0.0 sums to 0.0); from 8 entries on it sums a contiguous row
    pairwise, and there its own call is kept, on a C-contiguous copy of x.
    x may be the transpose of a C-contiguous (d, rows) array, whose columns
    are then contiguous; there numpy's add loop without AVX2 can give a NaN
    made from infinities of both signs the other sign bit, which no comparison
    reads.
    """
    if not 1 <= x.shape[1] < 8:
        return np.ascontiguousarray(x).sum(axis=1)
    out = x[:, 0] + 0.0
    for j in range(1, x.shape[1]):
        out += x[:, j]
    return out


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)`` with the same bits: the square root of
    the row sums of squares."""
    return np.sqrt(_row_sums(x * x))


def _sigmoid(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, both
    from one exp(-|z|), which never overflows."""
    ez = np.exp(-np.abs(z))
    numerator = np.where(z >= 0, 1.0, ez)
    ez += 1.0
    return np.divide(numerator, ez, out=out)


def per_sample_losses(problem: LogisticProblem, thetas: np.ndarray) -> np.ndarray:
    """-log sigmoid(y_i x_i' theta_s) for every (sample s, index i); shape (rows, n)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    z = (thetas @ problem.covariates.T) * problem.labels[None, :]
    return np.logaddexp(0.0, -z)


def _gradient(X: np.ndarray, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Gradient of the summed losses -log sigmoid(y_i x_i' theta) at theta."""
    z = y * (X @ theta)
    return -(X * (y * _sigmoid(-z))[:, None]).sum(axis=0)


def fit_erm(
    problem: LogisticProblem,
    exclude: Optional[int] = None,
    tol: float = 1e-8,
    max_iter: int = 100_000,
) -> np.ndarray:
    """Projected gradient descent for the ball-constrained logistic minimizer.

    Fixed step 4 / lambda_max(A) (the logistic Hessian is at most A / 4);
    terminates when the projected-gradient norm drops to ``tol``.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    X, y, r = problem.covariates, problem.labels, problem.r
    if exclude is not None:
        if not 0 <= exclude < problem.n:
            raise IndexError(f"exclude index {exclude} out of range [0, {problem.n})")
        keep = np.arange(problem.n) != exclude
        X, y = X[keep], y[keep]
    if X.shape[0] == 0:
        return np.zeros(problem.d)
    lam_max = float(np.linalg.eigvalsh(problem.covariates.T @ problem.covariates)[-1])
    if lam_max <= 0:
        return np.zeros(problem.d)
    step = 4.0 / lam_max
    theta = np.zeros(problem.d)
    for _ in range(max_iter):
        candidate = theta - step * _gradient(X, y, theta)
        # math.sqrt(v.dot(v)) is np.linalg.norm(v) of a 1-D float vector,
        # without its Python overhead
        norm = math.sqrt(candidate.dot(candidate))
        if norm > r:
            candidate = candidate * (r / norm)
        move = theta - candidate
        if math.sqrt(move.dot(move)) / step <= tol:
            return candidate
        theta = candidate
    raise ErmConvergenceError(
        f"no convergence in {max_iter} iterations "
        f"(projected-gradient norm {np.linalg.norm(theta - candidate) / step:.3e}, tol {tol:.1e})"
    )


@dataclass(frozen=True)
class LogisticGeometry:
    """Second-moment geometry, the minimizer and its full-sample total, and the constants."""

    A: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    lambda_min: float
    A_half: np.ndarray
    A_half_inv: np.ndarray
    theta_star: np.ndarray
    grad_star: np.ndarray
    erm_loss: float
    R_B: float
    delta: float


def build_geometry(problem: LogisticProblem, tol: float = 1e-8) -> LogisticGeometry:
    """Eigendecompose A = sum x_i x_i', fit the minimizer once, fix the constants."""
    X, y = problem.covariates, problem.labels
    A = X.T @ X
    eigvals, eigvecs = np.linalg.eigh(A)
    lambda_min = float(eigvals[0])
    if lambda_min <= 0:
        raise ValueError(
            f"second-moment matrix is degenerate (lambda_min={lambda_min:.3e}); "
            "the volumetric construction needs lambda_min > 0"
        )
    A_half = eigvecs @ np.diag(np.sqrt(eigvals)) @ eigvecs.T
    A_half_inv = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
    theta_star = fit_erm(problem, tol=tol)
    rR = problem.r * problem.R
    R_B = math.sqrt(problem.n) * rR + 2.0 * math.sqrt(rR)
    delta = 1.0 + rR + math.sqrt(rR / lambda_min) * problem.R
    return LogisticGeometry(
        A=A,
        eigvals=eigvals,
        eigvecs=eigvecs,
        lambda_min=lambda_min,
        A_half=A_half,
        A_half_inv=A_half_inv,
        theta_star=theta_star,
        grad_star=_gradient(X, y, theta_star),
        erm_loss=float(per_sample_losses(problem, theta_star[None, :]).sum()),
        R_B=R_B,
        delta=delta,
    )


def min_ball_distance_sq(
    geometry: LogisticGeometry, r: float, thetas: np.ndarray
) -> np.ndarray:
    """Squared A-distance from each row of thetas to the radius-r ball.

    Points inside the ball are at distance zero; otherwise the constrained
    projection is found by bisection on the Lagrange multiplier of the norm
    constraint in the eigenbasis of A: 100 halvings, or fewer once one leaves
    every bracket as it was, as all later ones would.  The coordinates are held
    one row per eigenvalue, so that each halving's products run along the
    draws, not along each draw's d coordinates.  This is the exact
    arbiter of H_A membership: ``_in_HA`` settles most draws by closed-form
    bounds on this distance and sends only the draws they leave undecided here.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    norms = _row_norms(thetas)
    out = np.zeros(thetas.shape[0])
    outside = norms > r
    if not np.any(outside):
        return out
    # coordinates in the eigenbasis, (d, draws)
    coords = np.ascontiguousarray((thetas[outside] @ geometry.eigvecs).T)
    a = geometry.eigvals[:, None]
    a_coords = a * coords  # every halving's numerators
    lo = np.zeros(coords.shape[1])
    hi = geometry.eigvals[-1] * (norms[outside] / r - 1.0) * (1.0 + 1e-12) + 1e-300
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        proj = a_coords / (a + mid)
        too_big = _row_sums((proj * proj).T) > r * r
        # the halving moves no bracket: mid equals the end it would replace
        # (never on a NaN bracket, as NaN equals nothing)
        if np.all(np.where(too_big, mid == lo, mid == hi)):
            break
        lo, hi = np.where(too_big, mid, lo), np.where(too_big, hi, mid)
    lam = 0.5 * (lo + hi)
    scaled = lam * coords / (a + lam)
    out[outside] = _row_sums((a * (scaled * scaled)).T)
    return out


# Half-width of the undecided band, relative to the threshold.  Outside the
# ball the bisection above returns the exact distance D up to rounding: after
# 100 halvings its multiplier sits within an ulp of the root, and the norm
# constraint it solves cancels |theta| against r, which scales an ulp by at
# most |theta| / (|theta| - r).  Near the threshold D ~ rR, and
# D <= lambda_max (|theta| - r)^2 with lambda_max <= n R^2, so that factor is
# at most 1 + sqrt(n r R): below 10 at n = 50, rR = 1, and below 1e5 while
# n r R < 1e10.  The bisection's value and each computed bound therefore sit
# within about 1e-11 relative of their exact values, far inside this margin,
# so a draw whose bound clears thr by the margin gets the same verdict from
# the bisection.  When A is isotropic the upper bound equals D, and only the
# margin keeps boundary draws on the bisection.
_BAND_REL = 1e-9

# Member draws per block when the (members, n) loss tables are filled, so that
# z and the ufunc temporaries never exceed one block.  The blocks of
# ``build_workspace`` run on ``core._for_each_block``, where every thread that
# a wide pool's fill opens keeps its own malloc arena of block temporaries.
# At n = 50 and 2e5 draws, two threads raised a process's peak resident set
# over one thread's by 2.4 MB with 512-row blocks, 2.7 MB with 2,048 and
# 8.0 MB with 4,096.
_CHUNK_ROWS = 512
_SCREEN_ROWS = 8192  # draws per block of ``_in_HA``, a few floats each


def _loss_totals(problem: LogisticProblem, thetas: np.ndarray) -> np.ndarray:
    """``per_sample_losses(problem, thetas).sum(axis=1)``, in blocks of
    ``_CHUNK_ROWS`` draws, so that no table is larger than one block."""
    totals = np.empty(thetas.shape[0])
    for start in range(0, thetas.shape[0], _CHUNK_ROWS):
        block = slice(start, start + _CHUNK_ROWS)
        totals[block] = per_sample_losses(problem, thetas[block]).sum(axis=1)
    return totals


def _distance_bounds(
    geometry: LogisticGeometry, r: float, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (lower, upper) bounds on ``min_ball_distance_sq``; 0 in the ball.

    lambda_min (|theta| - r)^2 <= D <= (1 - r/|theta|)^2 theta'A theta; the
    right side is the distance to the radial projection onto the sphere.
    """
    norms = np.maximum(_row_norms(thetas), r)
    excess = norms - r
    upper = (excess / norms) ** 2 * _row_sums((thetas @ geometry.A) * thetas)
    return geometry.lambda_min * excess**2, upper


def _in_HA(
    geometry: LogisticGeometry, r: float, thetas: np.ndarray, thr: float
) -> np.ndarray:
    """H_A membership, ``min_ball_distance_sq(geometry, r, thetas) <= thr``.

    A draw whose upper bound is at most thr less the margin is a member (every
    draw inside the ball is), one whose lower bound exceeds thr plus the
    margin is not, and only the draws left in between go to one bisection,
    whose verdict is final.  The bounds, taken in blocks on
    ``core._for_each_block``, only route draws, so the mask does not depend on
    the blocks.
    """
    member = np.empty(thetas.shape[0], dtype=bool)
    band = np.empty(thetas.shape[0], dtype=bool)
    margin = _BAND_REL * thr

    def screen(start):
        block = slice(start, start + _SCREEN_ROWS)
        lower, upper = _distance_bounds(geometry, r, thetas[block])
        member[block] = upper <= thr - margin
        band[block] = (upper > thr - margin) & (lower <= thr + margin)

    _for_each_block(screen, range(0, thetas.shape[0], _SCREEN_ROWS), thetas.shape[0])
    band = np.flatnonzero(band)
    member[band] = min_ball_distance_sq(geometry, r, thetas[band]) <= thr
    return member


def _ellipsoid_draws(
    geometry: LogisticGeometry, k: int, radius: float, rng: np.random.Generator
) -> np.ndarray:
    """k uniform draws from {theta : |A^{1/2} theta| <= radius}."""
    d = geometry.eigvals.size
    g = rng.standard_normal((k, d))
    g /= np.maximum(_row_norms(g), 1e-300)[:, None]
    radii = rng.random(k) ** (1.0 / d)
    # in place, the products of (g * radii[:, None]) * radius with no (k, d)
    # temporary
    g *= radii[:, None]
    g *= radius
    return g @ geometry.A_half_inv


def sample_muB(geometry: LogisticGeometry, k: int, seed: int) -> np.ndarray:
    """k uniform draws from the reference ellipsoid B."""
    if k < 1:
        raise ValueError("sample count must be positive")
    return _ellipsoid_draws(geometry, k, geometry.R_B, np.random.default_rng(seed))


#: the fewest accepted draws that any Monte-Carlo estimate is trusted with
MIN_ACCEPTED = 100


@dataclass(frozen=True)
class McConfig:
    """Sampling budget for the Monte-Carlo level-set machinery."""

    samples_per_level: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples_per_level < MIN_ACCEPTED:
            raise ValueError(f"samples_per_level must be at least {MIN_ACCEPTED}")


@dataclass(frozen=True)
class McWorkspace:
    """Common-random-number sample pool shared by every (tolerance, index) cell.

    Of the k draws from mu_B only the H_A members enter a level set, so the
    loss tables hold one row per member draw, in draw order.  They are stored
    per index: ``losses`` and ``sig`` are transposed views of (n, members)
    arrays, so the row ``losses.T[i]`` that the leave-one-out sweep and the
    sandwich read for index i is contiguous.  The tables are filled, and
    their rows swept and audited, in independent blocks on
    ``core._for_each_block``, which shares a wide pool's blocks out between
    the calling thread and threads of its own; each block writes only its own
    rows, so every bit is the same on any number of CPUs.  Reference
    losses come from the best of all fitted minimizers (full-sample and every
    leave-one-out fit evaluated on each objective), so that solver
    suboptimality can never break the nestedness of accepted sets.
    """

    thetas: np.ndarray  # (k, d)
    member: np.ndarray  # (k,) bool, H_A membership
    losses: np.ndarray  # (members, n) per-point losses of the member draws, per index
    totals: np.ndarray  # (members,) their full-sample losses
    sig: np.ndarray  # (members, n) their probabilities of the observed labels, per index
    theta_star_minus: np.ndarray  # (n, d)
    ref_full: float
    ref_excl: np.ndarray  # (n,)

    @property
    def k(self) -> int:
        return self.thetas.shape[0]


def build_workspace(
    geometry: LogisticGeometry, problem: LogisticProblem, mc: McConfig
) -> McWorkspace:
    theta_star_minus = np.array([fit_erm(problem, exclude=i) for i in range(problem.n)])
    thetas = sample_muB(geometry, mc.samples_per_level, mc.seed)
    member = _in_HA(geometry, problem.r, thetas, problem.r * problem.R + 1e-12)
    # Both tables share one allocation.  At pool sizes where memory matters it
    # is past malloc's largest mmap threshold (32 MiB), so it is always mapped
    # on its own and unmapped when the workspace is dropped.  Two tables just
    # under that threshold would go to the heap or to mmap depending on what
    # earlier pools had freed, and the peak resident memory with them.
    rows = np.flatnonzero(member)
    losses, sig = np.empty((2, problem.n, rows.size)).transpose(0, 2, 1)
    totals = np.empty(rows.size)

    def fill(start):
        block = slice(start, start + _CHUNK_ROWS)
        z = (thetas[rows[block]] @ problem.covariates.T) * problem.labels[None, :]
        _sigmoid(z, out=sig[block])
        np.logaddexp(0.0, -z, out=z)
        # summed over the contiguous block: the bits of a row sum of the table
        totals[block] = z.sum(axis=1)
        losses[block] = z

    _for_each_block(fill, range(0, rows.size, _CHUNK_ROWS), rows.size)
    candidates = np.vstack([geometry.theta_star[None, :], theta_star_minus])
    cand_losses = per_sample_losses(problem, candidates)
    cand_totals = cand_losses.sum(axis=1)
    ref_full = float(cand_totals.min())
    ref_excl = (cand_totals[:, None] - cand_losses).min(axis=0)
    return McWorkspace(
        thetas=thetas,
        member=member,
        losses=losses,
        totals=totals,
        sig=sig,
        theta_star_minus=theta_star_minus,
        ref_full=ref_full,
        ref_excl=ref_excl,
    )


def logistic_grid(geometry: LogisticGeometry, problem: LogisticProblem) -> ToleranceGrid:
    """Tolerances delta, 2 delta, ..., ceil(16 d ln(max(8, 2 n r R))) * delta."""
    count = math.ceil(
        16 * problem.d * math.log(max(8.0, 2.0 * problem.n * problem.r * problem.R))
    )
    levels = geometry.delta * np.arange(1, count + 1, dtype=float)
    return ToleranceGrid(levels=levels, gap=geometry.delta)


@dataclass(frozen=True)
class LogisticRun:
    """A finished run plus everything needed to audit it."""

    output: MlsaOutput
    geometry: LogisticGeometry
    workspace: McWorkspace
    problem: LogisticProblem


def run_mlsa_logistic(problem: LogisticProblem, mc: McConfig) -> LogisticRun:
    """Median of level-set aggregation with Monte-Carlo level sets.

    For each index i and grid tolerance t, the predicted probability is the
    mean of sigmoid(y_i x_i' theta) over the common sample pool restricted to
    H_A and to the leave-one-out loss level; the final probability at i is the
    lower median across the grid and the LOO error is the mean negative log of
    those medians.
    """
    geometry = build_geometry(problem)
    workspace = build_workspace(geometry, problem, mc)
    grid = logistic_grid(geometry, problem)
    if workspace.totals.size == 0:
        raise InsufficientAcceptanceError(
            f"the pool is empty: none of the {workspace.k} draws lies in H_A "
            f"(samples_per_level={mc.samples_per_level}, need {MIN_ACCEPTED}); "
            "increase samples_per_level"
        )
    counts, sums = _loo_level_sums(
        workspace.losses.T, workspace.totals, workspace.sig.T, grid.levels, workspace.ref_excl
    )
    short = counts < MIN_ACCEPTED
    if short.any():
        i, bad = np.argwhere(short.T)[0]
        raise InsufficientAcceptanceError(
            f"only {counts[bad, i]} of {workspace.k} samples accepted at "
            f"t={grid.levels[bad]:.6g}, i={i} (need {MIN_ACCEPTED}); "
            "increase samples_per_level"
        )
    per_level = sums / counts
    medians = _lower_medians(per_level)
    loo = float(np.mean(-np.log(medians)))
    output = MlsaOutput(per_level=per_level, medians=medians, loo_error=loo,
                        erm_loss=geometry.erm_loss, grid=grid)
    return LogisticRun(output=output, geometry=geometry, workspace=workspace, problem=problem)


@dataclass(frozen=True)
class SandwichReport:
    """Violated inclusions over all (index, level) cells; ``mlsa run`` makes
    the count a certificate against 0."""

    cells: int
    violations: int


def crn_sandwich_report(run: LogisticRun) -> SandwichReport:
    """Exact nestedness of accepted sets under common random numbers.

    For every index i and grid tolerance t, each sample accepted by the
    full-sample level at t - delta must be accepted by the leave-one-out level
    at t, and each sample that level accepts must be accepted by the
    full-sample level at t + delta.  Levels are thresholds on the member
    draws' losses as in ``run_mlsa_logistic``: ``totals <= ref_full + t`` on
    the full sample, ``excl <= ref_excl[i] + t`` without index i.  The check
    sorts the member totals once and reads each index's contiguous row
    ``losses.T[i]`` in that order (``audit._sandwich_violations``).
    """
    ws = run.workspace
    grid = run.output.grid
    bad = _sandwich_violations(
        ws.losses.T, ws.totals, grid.levels, grid.gap, ws.ref_full, ws.ref_excl
    )
    return SandwichReport(cells=2 * run.problem.n * len(grid), violations=int(bad.sum()))


def verify_ellipsoid_containment(
    geometry: LogisticGeometry,
    problem: LogisticProblem,
    mc: McConfig,
    seed: Optional[int] = None,
) -> list[BoundCertificate]:
    """Check that the half-ellipsoid of A-radius sqrt(rR) sits inside the level set.

    Uniform draws from the ellipsoid centered at the minimizer are filtered by
    the half-space of nonpositive first-order change (vacuous when the final
    gradient is negligible, the interior case); each retained draw must satisfy
    the loss-level test at rR and belong to H_A: ``ellipsoid-containment``
    holds the draws that do not against 0.  Outside the interior case the
    half-space must also retain about half the draws, since its boundary
    passes through the center: ``containment-halfspace`` holds 1/2 less 3
    standard errors against the fraction retained, with no further tolerance.
    """
    rng = np.random.default_rng(mc.seed if seed is None else seed)
    k = mc.samples_per_level
    rR = problem.r * problem.R
    thetas = geometry.theta_star + _ellipsoid_draws(geometry, k, math.sqrt(rR), rng)
    grad_norm = float(np.linalg.norm(geometry.grad_star))
    interior = grad_norm <= _GRAD_VACUOUS
    if interior:
        half = np.ones(k, dtype=bool)
    else:
        half = (thetas - geometry.theta_star) @ geometry.grad_star <= 0.0
    kept = thetas[half]
    level_ok = _loss_totals(problem, kept) <= geometry.erm_loss + rR + NUMERIC_TOL
    member_ok = _in_HA(geometry, problem.r, kept, rR + 1e-9)
    violations = int(np.sum(~(level_ok & member_ok)))
    certs = [_no_violations("ellipsoid-containment", violations, samples=k,
                            interior=interior, grad_norm=grad_norm)]
    if not interior:
        stderr = math.sqrt(0.25 / k)
        certs.append(BoundCertificate("containment-halfspace", lhs=0.5 - 3.0 * stderr,
                                      rhs=float(half.mean()), tolerance=0.0,
                                      components={"stderr": stderr}))
    return certs


def verify_volume_lower_bound(
    geometry: LogisticGeometry,
    problem: LogisticProblem,
    mc: McConfig,
    seed: Optional[int] = None,
) -> BoundCertificate:
    """Check mu_B(level set at rR) against the (max(8, 2 n r R))^(-d) floor.

    The certificate ``volume-bound`` holds the floor against the estimate
    plus 3 standard errors, with no further tolerance.
    """
    thetas = sample_muB(geometry, mc.samples_per_level, mc.seed if seed is None else seed)
    rR = problem.r * problem.R
    totals = _loss_totals(problem, thetas[_in_HA(geometry, problem.r, thetas, rR + 1e-12)])
    count = int(np.sum(totals <= geometry.erm_loss + rR))
    if count < MIN_ACCEPTED:
        raise InsufficientAcceptanceError(
            f"only {count} of {mc.samples_per_level} samples hit the level set at rR; "
            "increase samples_per_level to resolve the volume bound"
        )
    estimate = count / mc.samples_per_level
    stderr = math.sqrt(estimate * (1.0 - estimate) / mc.samples_per_level)
    return BoundCertificate(
        "volume-bound", lhs=max(8.0, 2.0 * problem.n * rR) ** (-problem.d),
        rhs=estimate + 3.0 * stderr, tolerance=0.0,
        components={"estimate": estimate, "stderr": stderr, "count": count,
                    "samples": mc.samples_per_level},
    )


def verify_logistic_bound(
    output: MlsaOutput,
    geometry: LogisticGeometry,
    problem: LogisticProblem,
    mc_slack: float = 0.05,
) -> BoundCertificate:
    """Certify the logistic LOO oracle bound for a finished run.

    rhs is (8/n) * best loss + (136/n) * delta * d * ln(max(8, 2 n r R)),
    inflated by ``mc_slack`` (relative) to absorb Monte-Carlo noise in lhs.
    """
    expected = logistic_grid(geometry, problem)
    _check_grid(output.grid, expected, "logistic grid")
    n, d = problem.n, problem.d
    log_term = math.log(max(8.0, 2.0 * n * problem.r * problem.R))
    base = 8.0 * geometry.erm_loss / n + 136.0 * geometry.delta * d * log_term / n
    return BoundCertificate(
        name="logistic-oracle-bound",
        lhs=output.loo_error,
        rhs=(1.0 + mc_slack) * base,
        components={
            "erm_loss": geometry.erm_loss,
            "delta": geometry.delta,
            "d": d,
            "n": n,
            "log_term": log_term,
            "grid_size": len(expected),
            "rhs_nominal": base,
            "mc_slack": mc_slack,
        },
    )


def geometry_report(geometry: LogisticGeometry, problem: LogisticProblem) -> dict:
    """Flat summary of the geometric constants for run reports."""
    grid = logistic_grid(geometry, problem)
    return {
        "eigenvalues": [float(v) for v in geometry.eigvals],
        "lambda_min": geometry.lambda_min,
        "theta_star": [float(v) for v in geometry.theta_star],
        "grad_norm": float(np.linalg.norm(geometry.grad_star)),
        "R_B": geometry.R_B,
        "delta": geometry.delta,
        "grid_size": len(grid),
    }


def load_logistic_problem(path, r: float, R: float) -> LogisticProblem:
    """Load a problem from whitespace-delimited text: columns x_1 .. x_d, y."""
    data = np.loadtxt(path, dtype=float, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("need at least one covariate column plus the label column")
    return LogisticProblem(covariates=data[:, :-1], labels=data[:, -1], r=r, R=R)
