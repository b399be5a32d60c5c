"""Binary classification under the 0-1 loss: majority vote over level sets.

Hypothesis classes are given either as explicit 0/1 tables or through small
geometric families (thresholds, intervals, unions of intervals, axis-aligned
rectangles) restricted to the observed covariates.  Restriction produces the
finite set of distinct labelings, whose size is controlled by the Sauer bound
for the family's VC dimension d, and the tolerance grid {1, ..., ceil(24 d ln n)}
guarantees that at least three quarters of its levels pass the growth audit
with constant 2.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional

import numpy as np

from .audit import BoundCertificate, GridMismatchError, _check_grid
from .core import (
    AggregationRule,
    LabeledSample,
    LossModel,
    MlsaOutput,
    PredictionTable,
    ToleranceGrid,
)

__all__ = [
    "zero_one_loss",
    "MAJORITY_VOTE",
    "classification_grid",
    "restrict_class",
    "sauer_bound",
    "verify_classification_bound",
    "GridMismatchError",
]

#: Column-count cap for labeling enumeration; geometric families with many
#: realizable labelings are meant for desk-scale instances.
MAX_ENUMERATED_COLUMNS = 2_000_000


def zero_one_loss() -> LossModel:
    return LossModel(
        pointwise=lambda pred, resp: pred != resp,
        delta_bound=1.0,
        name="zero_one",
    )


MAJORITY_VOTE = AggregationRule(
    name="majority_vote",
    combine=lambda counts, sums: (2.0 * sums - counts >= 0).astype(float),
    stability=2.0,
)


def classification_grid(d: int, n: int) -> ToleranceGrid:
    """Integer tolerances 1 .. ceil(24 d ln n) with gap 1.

    Needs n >= 3 (the growth guarantee's counting argument requires it).
    """
    if d < 1:
        raise ValueError("VC dimension must be at least 1")
    if n < 3:
        raise ValueError("classification grid needs n >= 3")
    top = math.ceil(24 * d * math.log(n))
    return ToleranceGrid(levels=np.arange(1, top + 1, dtype=float), gap=1.0)


def sauer_bound(n: int, d: int) -> int:
    """sum_{k <= d} C(n, k), the maximal number of distinct labelings."""
    return sum(math.comb(n, k) for k in range(min(d, n) + 1))


def _require_distinct_1d(covariates: np.ndarray) -> np.ndarray:
    x = np.asarray(covariates, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("1-d covariates must be a nonempty vector")
    if np.unique(x).size != x.size:
        raise ValueError(
            "tied covariates make the restricted class ambiguous; deduplicate first"
        )
    return x


def _threshold_labelings(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(x.size)
    # labeling p assigns 1 to the p largest points
    cuts = np.arange(x.size + 1)
    return ranks[:, None] >= (x.size - cuts)[None, :]


def _union_of_intervals_labelings(x: np.ndarray, k: int) -> np.ndarray:
    """Labelings realizable by at most k disjoint closed intervals, points by
    labelings, filled in place (one table-sized comparison temporary)."""
    if k < 1:
        raise ValueError("interval count must be at least 1")
    n = x.size
    total = sum(math.comb(n + 1, 2 * j) for j in range(k + 1))
    if total > MAX_ENUMERATED_COLUMNS:
        raise ValueError(
            f"enumeration would produce ~{total} labelings; reduce n or k"
        )
    # int32 ranks and fenceposts: the table-sized comparisons read half the
    # bytes of int64 ones
    ranks = np.empty(n, dtype=np.int32)
    ranks[np.argsort(x, kind="stable")] = np.arange(n, dtype=np.int32)
    # fencepost pairs (a, b) mark a block of ones covering sorted positions a..b-1
    starts, ends = (fence.astype(np.int32) for fence in np.triu_indices(n + 1, k=1))
    labelings = np.zeros((n, total), dtype=bool)
    single = labelings[:, 1:1 + starts.size]
    np.greater_equal(ranks[:, None], starts, out=single)
    single &= ranks[:, None] < ends
    column = 1 + starts.size
    for j in range(2, k + 1):
        for cuts in combinations(range(n + 1), 2 * j):
            for a, b in zip(cuts[::2], cuts[1::2]):
                labelings[(ranks >= a) & (ranks < b), column] = True
            column += 1
    return labelings


def _rectangle_labelings(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("rectangle family needs (n, 2) covariates")
    n = pts.shape[0]
    if len({(a, b) for a, b in pts.tolist()}) != n:
        raise ValueError("tied covariate points make the restricted class ambiguous")
    xs = np.unique(pts[:, 0])
    ys = np.unique(pts[:, 1])
    x_ranges = [(lo, hi) for ai, lo in enumerate(xs) for hi in xs[ai:]]
    y_ranges = [(lo, hi) for ai, lo in enumerate(ys) for hi in ys[ai:]]
    if len(x_ranges) * len(y_ranges) > MAX_ENUMERATED_COLUMNS:
        raise ValueError("rectangle enumeration too large; reduce n")
    y_masks = np.array(
        [(pts[:, 1] >= lo) & (pts[:, 1] <= hi) for lo, hi in y_ranges]
    )
    columns = [np.zeros(n, dtype=bool)]
    for lo, hi in x_ranges:
        x_mask = (pts[:, 0] >= lo) & (pts[:, 0] <= hi)
        columns.append((y_masks & x_mask[None, :]).T)
    return np.column_stack([columns[0][:, None]] + columns[1:])


def restrict_class(
    descriptor: str,
    covariates,
    k: Optional[int] = None,
    table: Optional[np.ndarray] = None,
) -> PredictionTable:
    """Restrict a hypothesis family to the covariates as a deduplicated table.

    Descriptors: ``thresholds-1d`` (d=1), ``intervals-1d`` (d=2),
    ``unions-of-k-intervals`` (d=2k, pass k), ``axis-rectangles-2d`` (d=4),
    and ``explicit-table`` (identity on a user matrix, multiplicity kept).
    1-d families reject tied covariates.
    """
    if descriptor == "explicit-table":
        if table is None:
            raise ValueError("explicit-table descriptor needs the table argument")
        return PredictionTable(table, keep_duplicates=True)
    if descriptor == "thresholds-1d":
        x = _require_distinct_1d(covariates)
        values = _threshold_labelings(x)
    elif descriptor == "intervals-1d":
        x = _require_distinct_1d(covariates)
        values = _union_of_intervals_labelings(x, 1)
    elif descriptor == "unions-of-k-intervals":
        if k is None:
            raise ValueError("unions-of-k-intervals needs k")
        x = _require_distinct_1d(covariates)
        values = _union_of_intervals_labelings(x, k)
    elif descriptor == "axis-rectangles-2d":
        values = _rectangle_labelings(covariates)
    else:
        raise ValueError(f"unknown class descriptor {descriptor!r}")
    # thresholds (distinct cut counts) and single intervals (distinct nonempty
    # blocks plus the all-zero labeling) enumerate each labeling once already
    distinct = descriptor in ("thresholds-1d", "intervals-1d")
    return PredictionTable(values, keep_duplicates=distinct)


def descriptor_vc_dimension(descriptor: str, k: Optional[int] = None) -> int:
    dims = {"thresholds-1d": 1, "intervals-1d": 2, "axis-rectangles-2d": 4}
    if descriptor in dims:
        return dims[descriptor]
    if descriptor == "unions-of-k-intervals":
        if k is None:
            raise ValueError("unions-of-k-intervals needs k")
        return 2 * k
    raise ValueError(f"no VC dimension on record for {descriptor!r}")


def verify_classification_bound(
    output: MlsaOutput,
    table: PredictionTable,
    sample: LabeledSample,
    d: int,
    n: int,
) -> BoundCertificate:
    """Certify LOO <= (8/n) * output.erm_loss + (200/n) * d ln n for a finished run."""
    _check_grid(output.grid, classification_grid(d, n), "classification grid for these (d, n)")
    rhs = 8.0 * output.erm_loss / n + 200.0 * d * math.log(n) / n
    return BoundCertificate(
        name="classification-oracle-bound",
        lhs=output.loo_error,
        rhs=rhs,
        components={"erm_loss": output.erm_loss, "d": d, "n": n, "log_n": math.log(n)},
    )
