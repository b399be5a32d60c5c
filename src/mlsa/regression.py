"""Regression with bounded convex losses on [0, 1]: averaging over level sets.

Built-in losses clamp the prediction into [0, 1] before evaluation so the
declared bound is exact rather than an over-estimate; clamping never increases
a loss that is monotone in distance when responses live in [0, 1].  Averaging
satisfies the aggregation stability condition for any loss convex in the
prediction, and the grid {M, 2M, ..., ceil(12 ln |H|) * M} guarantees a
three-quarters fraction of good levels with growth constant 2.
"""

from __future__ import annotations

import math

import numpy as np

from .audit import BoundCertificate, _check_grid
from .core import (
    AggregationRule,
    LossModel,
    MlsaOutput,
    PredictionTable,
    ToleranceGrid,
)

__all__ = [
    "MEAN_AGGREGATE",
    "regression_grid",
    "builtin_losses",
    "scale_loss",
    "verify_regression_bound",
]


MEAN_AGGREGATE = AggregationRule(
    name="average",
    combine=lambda counts, sums: sums / counts,
)


def regression_grid(M: float, class_size: int) -> ToleranceGrid:
    """Tolerances M, 2M, ..., ceil(12 ln |H|) * M with gap M."""
    if not M > 0:
        raise ValueError("loss bound M must be positive")
    if class_size < 2:
        raise ValueError(
            "degenerate grid: a single-hypothesis class has nothing to aggregate"
        )
    top = math.ceil(12 * math.log(class_size))
    return ToleranceGrid(levels=M * np.arange(1, top + 1, dtype=float), gap=M)


def _clip01(pred: np.ndarray) -> np.ndarray:
    return np.clip(pred, 0.0, 1.0)


def builtin_losses(scale: float = 1.0) -> dict[str, LossModel]:
    """Squared and absolute loss on [0, 1], optionally scaled to bound `scale`."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    return {
        "squared": LossModel(
            pointwise=lambda p, y: scale * (_clip01(p) - y) ** 2,
            delta_bound=scale,
            name="squared" if scale == 1.0 else f"squared*{scale:g}",
        ),
        "absolute": LossModel(
            pointwise=lambda p, y: scale * np.abs(_clip01(p) - y),
            delta_bound=scale,
            name="absolute" if scale == 1.0 else f"absolute*{scale:g}",
        ),
    }


def scale_loss(name: str, M: float) -> LossModel:
    """A catalog loss rescaled so its declared bound is exactly M."""
    return builtin_losses(scale=M)[name]


def verify_regression_bound(
    output: MlsaOutput, table: PredictionTable, M: float
) -> BoundCertificate:
    """Certify LOO <= (8/n) * output.erm_loss + (104/n) * M ln |H| for a finished run."""
    m = table.n_hypotheses
    _check_grid(output.grid, regression_grid(M, m), "regression grid for this (M, |H|)")
    n = table.n_samples
    rhs = 8.0 * output.erm_loss / n + 104.0 * M * math.log(m) / n
    return BoundCertificate(
        name="bounded-convex-oracle-bound",
        lhs=output.loo_error,
        rhs=rhs,
        components={"erm_loss": output.erm_loss, "M": M, "class_size": m, "n": n},
    )
