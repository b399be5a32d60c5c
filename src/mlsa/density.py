"""Density estimation on a finite space under log loss.

A density class is a matrix of probability rows.  The key constant M is the
largest absolute log ratio between any two class members at any point; it is
always recomputed exactly from the matrix rather than trusted from the caller,
and it doubles as the tolerance-grid gap (per-observation loss differences
across the class are bounded by M, which is what the level-set sandwich needs;
the log loss itself is unbounded).  Classes with a zero entry have infinite M
and must be smoothed first: mixing every density with a fixed reference (the
class average when the space is at least as large as the class, the uniform
distribution otherwise) caps M at log(1/eps) + min(log |P|, log |X|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audit import BoundCertificate, _check_grid
from .core import (
    LabeledSample,
    LossModel,
    MlsaOutput,
    PredictionTable,
    ToleranceGrid,
    run_mlsa,
)
from .regression import MEAN_AGGREGATE

__all__ = [
    "DensityClass",
    "log_loss_table",
    "density_grid",
    "smooth_class",
    "mlsa_for_density",
    "verify_density_bound",
    "verify_smoothed_density",
    "smoothing_inflation",
    "load_density_class",
]

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DensityClass:
    """Rows are probability vectors over a finite space; M is derived, not declared."""

    probs: np.ndarray
    log_ratio_bound: float = field(init=False)

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2 or probs.shape[0] < 1 or probs.shape[1] < 1:
            raise ValueError("density class must be a nonempty 2-d matrix")
        # NaN would pass both checks below: nan < 0 and |nan - 1| > tol are False
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        sums = probs.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            raise ValueError("every density row must sum to 1 within 1e-12")
        if np.any(probs == 0):
            bound = math.inf
        else:
            logs = np.log(probs)
            bound = float(np.max(logs.max(axis=0) - logs.min(axis=0)))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "log_ratio_bound", bound)

    @property
    def n_densities(self) -> int:
        return self.probs.shape[0]

    @property
    def space_size(self) -> int:
        return self.probs.shape[1]


def _check_observations(dclass: DensityClass, observations) -> np.ndarray:
    obs = np.asarray(observations)
    if obs.ndim != 1 or obs.size < 1:
        raise ValueError("observations must be a nonempty 1-d sequence")
    if not np.issubdtype(obs.dtype, np.integer):
        if not np.all(obs == obs.astype(int)):
            raise ValueError("observations must be integer points of the space")
        obs = obs.astype(int)
    if obs.min() < 0 or obs.max() >= dclass.space_size:
        raise ValueError("observation outside the space")
    return obs


def log_loss_table(
    dclass: DensityClass, observations
) -> tuple[PredictionTable, LossModel, LabeledSample]:
    """Restrict the class to the observations, paired with the log loss.

    Table entry (i, j) is the probability density j assigns to observation i;
    the loss of a probability value is its negative log, so the response slot
    is unused (the sample carries the observations for bookkeeping).  Requires
    finite M; smooth the class first otherwise.
    """
    obs = _check_observations(dclass, observations)
    if not math.isfinite(dclass.log_ratio_bound):
        raise ValueError(
            "class has a zero entry (infinite log ratio); smooth_class() it first"
        )
    table = PredictionTable(dclass.probs[:, obs].T, keep_duplicates=True)
    loss = LossModel(
        pointwise=lambda p, _y: -np.log(p),
        delta_bound=dclass.log_ratio_bound,
        bound_is_range=True,
        name="log_loss",
    )
    return table, loss, LabeledSample(obs.astype(float))


def density_grid(M: float, class_size: int) -> ToleranceGrid:
    """Tolerances M, 2M, ..., ceil(12 ln |P|) * M with gap M."""
    if not (M > 0 and math.isfinite(M)):
        raise ValueError("log-ratio bound M must be positive and finite")
    if class_size < 2:
        raise ValueError("degenerate grid: single-density classes bypass aggregation")
    top = math.ceil(12 * math.log(class_size))
    return ToleranceGrid(levels=M * np.arange(1, top + 1, dtype=float), gap=M)


def smooth_class(dclass: DensityClass, epsilon: float) -> DensityClass:
    """Mix every density with a fixed reference to force a finite log ratio.

    The reference is the class average when |X| >= |P| (ties included) and the
    uniform distribution otherwise; the recomputed bound never exceeds
    log(1/epsilon) + min(log |P|, log |X|).
    """
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    if dclass.space_size >= dclass.n_densities:
        reference = dclass.probs.mean(axis=0)
    else:
        reference = np.full(dclass.space_size, 1.0 / dclass.space_size)
    return DensityClass((1.0 - epsilon) * dclass.probs + epsilon * reference[None, :])


def mlsa_for_density(dclass: DensityClass, observations) -> MlsaOutput:
    """Run the full pipeline for a density class on the given observations.

    Single-density classes bypass aggregation entirely: the prediction at every
    index is that density's value, on a trivial one-level grid.
    """
    obs = _check_observations(dclass, observations)
    if dclass.n_densities == 1:
        medians = dclass.probs[0, obs]
        losses = -np.log(medians)
        grid = ToleranceGrid(levels=np.array([1.0]), gap=1.0)
        return MlsaOutput(
            per_level=medians[None, :],
            medians=medians,
            loo_error=float(np.mean(losses)),
            erm_loss=float(losses.sum()),
            grid=grid,
        )
    table, loss, sample = log_loss_table(dclass, obs)
    grid = density_grid(dclass.log_ratio_bound, dclass.n_densities)
    return run_mlsa(table, sample, loss, grid, MEAN_AGGREGATE)


def _log_loss_totals(dclass: DensityClass, obs: np.ndarray) -> np.ndarray:
    """Each density's log loss summed over the observations, in class-row
    order; inf where a density gives an observation probability 0."""
    with np.errstate(divide="ignore"):
        return -np.log(dclass.probs[:, obs]).sum(axis=1)


def _erm_loss(dclass: DensityClass, obs: np.ndarray) -> float:
    return float(_log_loss_totals(dclass, obs).min())


def verify_density_bound(
    output: MlsaOutput, dclass: DensityClass, observations
) -> BoundCertificate:
    """Certify LOO <= (8/n) * best loss + (104/n) * M ln |P| for a finished run."""
    obs = _check_observations(dclass, observations)
    if not math.isfinite(dclass.log_ratio_bound):
        raise ValueError("infinite log ratio: smooth_class() before certifying")
    size = dclass.n_densities
    n = obs.size
    erm = _erm_loss(dclass, obs)
    if size == 1:
        rhs = 8.0 * erm / n
    else:
        expected = density_grid(dclass.log_ratio_bound, size)
        _check_grid(output.grid, expected, "density grid for this class")
        rhs = 8.0 * erm / n + 104.0 * dclass.log_ratio_bound * math.log(size) / n
    return BoundCertificate(
        name="density-oracle-bound",
        lhs=output.loo_error,
        rhs=rhs,
        components={
            "erm_loss": erm,
            "M": dclass.log_ratio_bound,
            "class_size": size,
            "n": n,
        },
    )


def verify_smoothed_density(
    output: MlsaOutput,
    original: DensityClass,
    observations,
    epsilon: float,
) -> BoundCertificate:
    """Certify the smoothed-pipeline bound at epsilon = 1/n.

    lhs is the LOO error of the run on the smoothed class; rhs references the
    original class's best loss:
    (8/n) * best + (112/n) * ln|P| * min(ln|P|, ln|X|) + (112/n) * ln|P| * ln n.
    More than one density: a run off the smoothed class's grid raises ``GridMismatchError``.
    """
    obs = _check_observations(original, observations)
    n = obs.size
    if not math.isclose(epsilon, 1.0 / n, rel_tol=1e-12):
        raise ValueError("the smoothed certificate is stated for epsilon = 1/n")
    if original.n_densities >= 2:
        smoothed = smooth_class(original, epsilon)
        _check_grid(output.grid, density_grid(smoothed.log_ratio_bound, smoothed.n_densities),
                    "density grid for the smoothed class")
    log_p = math.log(original.n_densities)
    log_x = math.log(original.space_size)
    erm = _erm_loss(original, obs)
    rhs = (
        8.0 * erm / n
        + 112.0 * log_p * min(log_p, log_x) / n
        + 112.0 * log_p * math.log(n) / n
    )
    return BoundCertificate(
        name="smoothed-density-oracle-bound",
        lhs=output.loo_error,
        rhs=rhs,
        components={
            "erm_loss": erm,
            "epsilon": epsilon,
            "log_class_size": log_p,
            "log_space_size": log_x,
            "n": n,
        },
    )


def smoothing_inflation(
    original: DensityClass,
    smoothed: DensityClass,
    observations,
    epsilon: float,
) -> BoundCertificate:
    """Check that smoothing inflates the best loss by at most 2 n epsilon.

    The smoothed image of the original minimizer (rows correspond one to one)
    must satisfy loss(smoothed minimizer image) <= loss(minimizer) + 2 n eps.
    """
    obs = _check_observations(original, observations)
    n = obs.size
    totals = _log_loss_totals(original, obs)
    best = int(np.argmin(totals))
    inflated = float(-np.log(smoothed.probs[best, obs]).sum())
    return BoundCertificate(
        name="smoothing-loss-inflation",
        lhs=inflated,
        rhs=float(totals[best]) + 2.0 * n * epsilon,
        components={"erm_index": best, "epsilon": epsilon, "n": n},
    )


def load_density_class(path) -> DensityClass:
    """Load a class from a whitespace-delimited text matrix, one density per row."""
    probs = np.loadtxt(path, dtype=float, ndmin=2)
    return DensityClass(probs)
