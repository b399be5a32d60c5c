"""Numerical certification of the aggregation and level-set growth conditions.

Every guarantee the library relies on is an inequality that can be checked
exactly on a concrete instance: the aggregation rule's stability condition,
the per-level growth-plus-sandwich condition, the single-level LOO bound, and
the grid-majority LOO bound.  Counting-measure arithmetic here is integer and
exact; a 1e-9 tolerance absorbs floating-point error in assertions that hold
exactly in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    _PARALLEL_ROW_ENTRIES,
    NUMERIC_TOL,
    AggregationRule,
    LabeledSample,
    LossModel,
    MlsaOutput,
    PredictionTable,
    ToleranceGrid,
    _for_each_block,
    _stable_argsort,
    loss_matrix,
    run_mlsa,
)

__all__ = [
    "AggregationStabilityReport",
    "LevelAudit",
    "GrowthAudit",
    "BoundCertificate",
    "GridMismatchError",
    "LevelNotGoodError",
    "GeneralizationReport",
    "check_aggregation_stability",
    "grid_growth_audit",
    "verify_single_level",
    "verify_grid_majority_bound",
    "simulate_generalization",
]


class LevelNotGoodError(ValueError):
    """A single-level certificate was requested at a level failing the growth audit."""


class GridMismatchError(ValueError):
    """The output was not produced with the grid the certificate assumes."""


@dataclass(frozen=True)
class AggregationStabilityReport:
    """Randomized check of the aggregation stability inequality.

    ``stability`` is the constant the rule declares for
    loss(aggregate) <= stability * (subset average loss).
    """

    trials: int
    violations: int
    stability: float
    first_violation: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class LevelAudit:
    level: float
    size_minus: int  # counting measure of the full-sample set at t - gap (clamped at 0)
    size_plus: int  # counting measure of the full-sample set at t + gap
    ratio: float
    sandwich_ok: bool
    good: bool


@dataclass(frozen=True)
class GrowthAudit:
    levels: tuple[LevelAudit, ...]
    good_fraction: float
    c_g: float
    delta: float


@dataclass(frozen=True)
class BoundCertificate:
    """Realized error against a bound value, with the bound's constituents.

    The certificate passes when the bound applies (``unmet``, the condition
    of the bound that the instance does not meet, is None), lhs and rhs are
    finite and slack = rhs - lhs >= -tolerance; ``reason`` says which of these
    fails.
    """

    name: str
    lhs: float
    rhs: float
    components: dict = field(default_factory=dict)
    tolerance: float = NUMERIC_TOL
    unmet: Optional[str] = None

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def reason(self) -> Optional[str]:
        """Why the certificate fails, or None when it passes."""
        if self.unmet is not None:
            return self.unmet
        for side in ("lhs", "rhs"):
            value = getattr(self, side)
            if not math.isfinite(value):
                return f"{side} = {value!r} is not finite"
        if self.slack < -self.tolerance:
            return f"slack = {self.slack!r} is below -{self.tolerance!r}"
        return None

    @property
    def passed(self) -> bool:
        return self.reason is None


def _check_grid(grid: ToleranceGrid, expected: ToleranceGrid, what: str) -> None:
    """Raise ``GridMismatchError`` unless ``grid`` is exactly ``expected``."""
    if grid.gap != expected.gap or not np.array_equal(grid.levels, expected.levels):
        raise GridMismatchError(f"output grid does not match the {what}")


def check_aggregation_stability(
    agg: AggregationRule,
    loss: LossModel,
    table: PredictionTable,
    sample: LabeledSample,
    trials: int = 1000,
    seed: int = 0,
) -> AggregationStabilityReport:
    """Check the aggregation stability inequality on random subsets and rows.

    For a random nonempty subset G of hypotheses and a random row i, the loss
    of the aggregate must not exceed the rule's declared stability constant
    times the average loss over G: factor 1 for averaging under a loss convex
    in the prediction (Jensen), factor 2 for majority vote under the 0-1 loss
    (a wrong vote means at least half of G is wrong, and no smaller constant
    works, e.g. voting {1, 1, 0} against response 0).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    lm = loss_matrix(table, sample, loss)
    n, m = lm.shape
    violations = 0
    first: Optional[dict] = None
    for trial in range(trials):
        size = int(rng.integers(1, m + 1))
        subset = np.sort(rng.choice(m, size=size, replace=False))
        i = int(rng.integers(n))
        prediction = agg(subset, table, i)
        lhs = float(loss.evaluate(prediction, sample.responses[i]))
        rhs = agg.stability * float(lm[i, subset].mean())
        if lhs > rhs + NUMERIC_TOL:
            violations += 1
            if first is None:
                first = {
                    "trial": trial,
                    "row": i,
                    "subset": subset.tolist(),
                    "aggregate": prediction,
                    "lhs": lhs,
                    "rhs": rhs,
                }
    return AggregationStabilityReport(
        trials=trials,
        violations=violations,
        stability=agg.stability,
        first_violation=first,
    )


#: bound on the entries of one row block's rows x columns temporaries in
#: ``_sandwich_violations``: a logistic pool row is a block of its own, a
#: narrow table is one or a few blocks
_SANDWICH_BLOCK_ENTRIES = 1 << 16


def _sandwich_violations(lm, totals, levels, delta, ref_full, refs=None) -> np.ndarray:
    """Per level, the number of rows where the lower inclusion fails plus the
    number where the upper one fails.

    The full-sample set at t holds the columns with ``totals <= ref_full + t``,
    row i's leave-one-out set those with ``excl <= ref + t``, where ``excl =
    totals - lm[i]`` and ``ref`` is ``refs[i]`` or the smallest ``excl``.
    Only the full-sample totals are sorted, once, and every row is read in
    that order.  Lower: every column in the full-sample set at t - delta, a
    prefix of the order, has ``excl - ref <= t``, checked only where t - delta
    >= 0; its largest ``excl - ref`` is the prefix maximum of ``excl`` less
    ``ref``, exact because subtracting a constant is monotone in floating
    point.  Upper: no column above the full-sample set at t + delta, a suffix
    of the order, lies in the leave-one-out set at t, so the suffix minimum of
    ``excl`` exceeds ``ref + t``.  Both sets are whole runs of tied totals, so
    the counts do not depend on the order within ties.  The prefixes and
    suffixes of all levels are unions of the segments between their bounds,
    so each row takes one maximum and one minimum per segment
    (``reduceat``), and their running maximum and minimum over the segments.
    ``lm`` is a rows x columns loss matrix, float or bool, read in blocks of
    at most ``_SANDWICH_BLOCK_ENTRIES`` entries, on ``core._for_each_block``
    when a row holds at least ``_PARALLEL_ROW_ENTRIES``; ``excl`` takes the
    dtype of ``totals``, so a bool matrix is read as exact integers with no
    float copy.
    """
    order_full, ranked_full = _stable_argsort(totals)
    m = ranked_full.size
    # the full-sample set at t - delta is the prefix [0, below)
    below = np.searchsorted(ranked_full, ref_full + (levels - delta), side="right")
    checkable = (levels - delta >= -NUMERIC_TOL) & (below > 0)
    # the columns above the full-sample set at t + delta are the suffix [above, m)
    above = np.searchsorted(ranked_full - ref_full, levels + delta + NUMERIC_TOL, side="right")
    # deduplicated by hand: a process's first np.unique call adds about 1.3 MB
    # to its resident set, the logistic pool's peak included
    bounds = np.sort(np.r_[0, below, above])
    cuts = bounds[(bounds < m) & np.r_[True, bounds[1:] != bounds[:-1]]]
    # the last segment of each prefix and the first of each suffix; an empty
    # suffix (past the last segment) has nothing to check
    prefix_end = np.searchsorted(cuts, below) - 1
    suffix_start = np.searchsorted(cuts, above)
    upper_checked = suffix_start < cuts.size
    suffix_start = np.minimum(suffix_start, cuts.size - 1)
    # per row, each segment's largest and smallest excl, then in place their
    # running maximum from the left and minimum from the right
    prefix_max, suffix_min = np.empty((2, len(lm), cuts.size), dtype=ranked_full.dtype)
    step = max(1, _SANDWICH_BLOCK_ENTRIES // m)

    def segment_extremes(lo):
        block = slice(lo, lo + step)
        excl = np.take(lm[block], order_full, axis=1).astype(ranked_full.dtype, copy=False)
        np.subtract(ranked_full, excl, out=excl)
        np.maximum.reduceat(excl, cuts, axis=1, out=prefix_max[block])
        np.minimum.reduceat(excl, cuts, axis=1, out=suffix_min[block])

    starts = range(0, len(lm), step)
    if m >= _PARALLEL_ROW_ENTRIES:
        _for_each_block(segment_extremes, starts)
    else:
        for lo in starts:
            segment_extremes(lo)
    np.maximum.accumulate(prefix_max, axis=1, out=prefix_max)
    np.minimum.accumulate(suffix_min[:, ::-1], axis=1, out=suffix_min[:, ::-1])
    ref = suffix_min[:, :1] if refs is None else refs[:, None]
    largest_loo = prefix_max[:, prefix_end] - ref
    bad = (checkable & (largest_loo > levels + NUMERIC_TOL)).sum(axis=0)
    bad += (upper_checked & (suffix_min[:, suffix_start] <= ref + levels)).sum(axis=0)
    return bad


def grid_growth_audit(
    table: PredictionTable,
    sample: LabeledSample,
    loss: LossModel,
    grid: ToleranceGrid,
    c_g: float = 2.0,
) -> GrowthAudit:
    """Audit every grid level for bounded growth and the leave-one-out sandwich.

    A level t is good when the counting-measure ratio of the full-sample sets
    at t + gap and t - gap is at most c_g, and when for every index i the
    leave-one-out set at t is nested between those two full-sample sets.  For
    t - gap < 0 the lower set is taken at 0 for the ratio and the lower
    inclusion is skipped (it is only meaningful at nonnegative tolerance; grids
    start at the gap, so this affects off-grid probing only).
    """
    if not c_g >= 1:
        raise ValueError(f"growth constant must be at least 1, got {c_g!r}")
    lm = loss_matrix(table, sample, loss)
    totals = lm.sum(axis=0)
    t_min = totals.min()
    levels = grid.levels
    delta = grid.gap

    sorted_totals = np.sort(totals)
    size_minus = np.searchsorted(
        sorted_totals, t_min + np.maximum(levels - delta, 0.0), side="right"
    )
    size_plus = np.searchsorted(sorted_totals, t_min + levels + delta, side="right")

    sandwich_ok = _sandwich_violations(lm, totals, levels, delta, t_min) == 0

    ratio = size_plus / size_minus
    good = sandwich_ok & (ratio <= c_g + NUMERIC_TOL)
    columns = (levels, size_minus, size_plus, ratio, sandwich_ok, good)  # LevelAudit's fields
    records = tuple(LevelAudit(*row) for row in zip(*(c.tolist() for c in columns)))
    good_fraction = int(good.sum()) / levels.size
    return GrowthAudit(
        levels=records, good_fraction=good_fraction, c_g=c_g, delta=delta
    )


def verify_single_level(
    table: PredictionTable,
    sample: LabeledSample,
    loss: LossModel,
    agg: AggregationRule,
    t: float,
    delta: float,
    c_g: float = 2.0,
) -> BoundCertificate:
    """Certify the single-level aggregate bound at a good level t.

    lhs is the LOO error of ``run_mlsa`` on the one-level grid {t}: the mean
    loss of the per-index aggregates of the leave-one-out level sets at t.
    rhs is (c_g / n) * (best empirical loss + t + delta).  Levels failing the
    growth audit are rejected as a precondition violation rather than reported
    as a bound failure.
    """
    grid = ToleranceGrid(levels=np.array([t], dtype=float), gap=delta)
    record = grid_growth_audit(table, sample, loss, grid, c_g=c_g).levels[0]
    if not record.good:
        raise LevelNotGoodError(
            f"level t={t} fails the growth audit "
            f"(ratio={record.ratio:.6g}, sandwich_ok={record.sandwich_ok})"
        )
    run_grid = ToleranceGrid(levels=grid.levels, gap=loss.delta_bound)
    output = run_mlsa(table, sample, loss, run_grid, agg)
    n = table.n_samples
    rhs = c_g / n * (output.erm_loss + t + delta)
    return BoundCertificate(
        name="single-level-aggregate-bound",
        lhs=output.loo_error,
        rhs=rhs,
        components={"erm_loss": output.erm_loss, "t": t, "delta": delta, "c_g": c_g, "n": n},
    )


def verify_grid_majority_bound(
    output: MlsaOutput,
    audit: GrowthAudit,
    erm: float,
    grid: Optional[ToleranceGrid] = None,
    nominal_rho: float = 0.75,
) -> BoundCertificate:
    """Certify the grid-majority LOO bound for a finished run.

    The headline rhs uses the measured good fraction; the nominal fraction from
    the task's growth guarantee (and the bound it yields) is recorded alongside
    so both can be reported.  The bound needs more than half of the levels
    good: at a measured fraction of 1/2 or less, rhs is nan and the
    certificate fails with the fraction as its reason.
    """
    grid = grid if grid is not None else output.grid
    rho_hat = audit.good_fraction
    majority = rho_hat > 0.5
    n = output.medians.size
    base = erm + grid.t_max + audit.delta
    multiplier = 2 * audit.c_g / ((2 * rho_hat - 1) * n) if majority else math.nan
    rhs = multiplier * base
    rhs_nominal = 2 * audit.c_g / ((2 * nominal_rho - 1) * n) * base
    return BoundCertificate(
        name="grid-majority-loo-bound",
        lhs=output.loo_error,
        rhs=rhs,
        components={
            "erm_loss": erm,
            "t_max": grid.t_max,
            "delta": audit.delta,
            "c_g": audit.c_g,
            "rho_hat": rho_hat,
            "rho_nominal": nominal_rho,
            "rhs_nominal": rhs_nominal,
            "multiplier": multiplier,
            "n": n,
        },
        unmet=None if majority else (
            f"grid-majority failure: measured good fraction {rho_hat:.4f} <= 1/2"
        ),
    )


@dataclass(frozen=True)
class GeneralizationReport:
    """Monte-Carlo estimate of held-out loss against the complexity bound."""

    repetitions: int
    mean_test_loss: float
    stderr: float
    oracle_risk: float
    multiplier: float
    complexity: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.mean_test_loss <= self.bound + 3 * self.stderr


def simulate_generalization(
    task,
    n: int,
    repetitions: int,
    seed: int = 0,
) -> GeneralizationReport:
    """Estimate the expected held-out loss of the transductive predictor.

    Each repetition draws n + 1 i.i.d. points from the task's distribution,
    runs the full pipeline on all n + 1 covariates (the prediction at the last
    index never sees its own response), and records the loss at that last
    index.  The mean is compared against
    multiplier * oracle_risk + complexity(n + 1) / (n + 1).

    ``task`` must provide ``make_instance(n_total, rng)``, ``loss``,
    ``aggregator``, ``grid_factory(n_total)``, ``oracle_risk``, ``multiplier``
    and ``complexity(n_total)``.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    rng = np.random.default_rng(seed)
    total = n + 1
    grid = task.grid_factory(total)
    held_out = np.empty(repetitions)
    for rep in range(repetitions):
        table, sample = task.make_instance(total, rng)
        output = run_mlsa(table, sample, task.loss, grid, task.aggregator)
        held_out[rep] = task.loss.evaluate(
            output.medians[-1], sample.responses[-1]
        )
    mean = float(held_out.mean())
    stderr = float(held_out.std(ddof=1) / np.sqrt(repetitions)) if repetitions > 1 else 0.0
    complexity = float(task.complexity(total))
    bound = task.multiplier * task.oracle_risk + complexity / total
    return GeneralizationReport(
        repetitions=repetitions,
        mean_test_loss=mean,
        stderr=stderr,
        oracle_risk=task.oracle_risk,
        multiplier=task.multiplier,
        complexity=complexity,
        bound=bound,
    )
