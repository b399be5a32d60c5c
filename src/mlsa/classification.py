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

#: bound on the entries of one block of unions of intervals filled at once:
#: its two gathered operands are the fill's only temporaries
_FILL_ENTRIES = 1 << 18


def _zero_one(pred, resp):
    """``pred != resp``, with bool operations for bool predictions.  The
    float comparison casts every vote and, on a hypothesis-major table, runs
    one short inner loop per labeling: 3.4 against 0.6 ms on a 200 x 20,101
    table.  A response other than 0 or 1 differs from every vote."""
    pred = np.asarray(pred)
    if pred.dtype != bool:
        return pred != resp
    out = pred ^ (resp == 1)
    other = (resp != 0) & (resp != 1)
    if np.any(other):
        out |= other
    return out


def zero_one_loss() -> LossModel:
    return LossModel(pointwise=_zero_one, delta_bound=1.0, name="zero_one")


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
    return (ranks[None, :] >= (x.size - cuts)[:, None]).T


def _union_of_intervals_labelings(x: np.ndarray, k: int) -> np.ndarray:
    """Labelings realizable by at most k disjoint closed intervals, points by
    labelings, in the order of ``combinations(range(n + 1), 2 * j)`` for j = 0
    .. k: a union of j intervals is a union of j - 1 followed by a single
    interval that starts after it ends.  Filled in place, one labeling per
    contiguous row of a labelings x points table, returned transposed."""
    if k < 1:
        raise ValueError("interval count must be at least 1")
    n = x.size
    total = sum(math.comb(n + 1, 2 * j) for j in range(k + 1))
    if total > MAX_ENUMERATED_COLUMNS:
        raise ValueError(
            f"enumeration would produce ~{total} labelings; reduce n or k"
        )
    ranks = np.empty(n, dtype=np.intp)
    ranks[np.argsort(x, kind="stable")] = np.arange(n)
    # fencepost pairs (a, b) mark a block of ones covering sorted positions
    # a..b-1, in lexicographic order: row 1 + s is single interval s
    starts, ends = np.triu_indices(n + 1, k=1)
    labelings = np.zeros((total, n), dtype=bool)
    # row b - 1: the points of rank below b
    below = np.arange(1, n + 1)[:, None] > ranks
    top = 1
    for a in range(n):
        # the n - a singles that start at a: (a, a + 1) .. (a, n)
        np.logical_and(below[a:], ranks >= a, out=labelings[top:top + n - a])
        top += n - a
    single = labelings[1:top]
    # the unions of j - 1 intervals: their rows and where their last one ends
    rows, last_end = np.arange(1, top), ends
    step = _FILL_ENTRIES // n + 1
    for _ in range(2, k + 1):
        # each union continues with the singles that start after it ends,
        # a suffix of the singles, so the new unions keep combinations' order
        first = np.searchsorted(starts, last_end, side="right")
        width = starts.size - first
        head = np.repeat(rows, width)
        # the k-th new union of a run continues its head with single first + k
        tail = np.arange(head.size) - np.repeat(np.cumsum(width) - width - first, width)
        for lo in range(0, head.size, step):
            hi = min(lo + step, head.size)
            np.logical_or(labelings[head[lo:hi]], single[tail[lo:hi]],
                          out=labelings[top + lo:top + hi])
        rows, last_end = top + np.arange(head.size), ends[tail]
        top += head.size
    return labelings.T


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
    labelings = [np.zeros((1, n), dtype=bool)]
    for lo, hi in x_ranges:
        x_mask = (pts[:, 0] >= lo) & (pts[:, 0] <= hi)
        labelings.append(y_masks & x_mask[None, :])
    return np.concatenate(labelings).T


def restrict_class(descriptor: str, covariates, k: Optional[int] = None) -> PredictionTable:
    """Restrict a hypothesis family to the covariates as a deduplicated table.

    Descriptors: ``thresholds-1d`` (d=1), ``intervals-1d`` (d=2),
    ``unions-of-k-intervals`` (d=2k, pass k) and ``axis-rectangles-2d`` (d=4).
    1-d families reject tied covariates.
    """
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
