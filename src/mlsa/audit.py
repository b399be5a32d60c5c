"""Numerical certification of the aggregation and level-set growth conditions.

Every guarantee the library relies on is an inequality that can be checked
exactly on a concrete instance: the aggregation rule's stability condition,
the per-level growth-plus-sandwich condition, the single-level LOO bound, and
the grid-majority LOO bound.  Counting-measure arithmetic here is integer and
exact; a 1e-9 tolerance absorbs floating-point error in assertions that hold
exactly in real arithmetic.  Every check returns the ``BoundCertificate`` it
is judged by, so each pass rule lives in one place, ``BoundCertificate.reason``;
a check that counts violations holds the count against 0 (``_no_violations``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    NUMERIC_TOL,
    AggregationRule,
    LabeledSample,
    LossModel,
    MlsaOutput,
    PredictionTable,
    ToleranceGrid,
    _column_totals,
    _for_each_block,
    _full_order,
    _mlsa,
    loss_matrix,
    run_mlsa,
)

__all__ = [
    "GrowthAudit",
    "BoundCertificate",
    "GridMismatchError",
    "check_aggregation_stability",
    "grid_growth_audit",
    "run_and_audit",
    "verify_single_level",
    "verify_grid_majority_bound",
    "simulate_generalization",
]


class GridMismatchError(ValueError):
    """The output was not produced with the grid the certificate assumes."""


@dataclass(frozen=True)
class GrowthAudit:
    """One tuple of Python scalars per column, entry k for level k: audits compare with ==."""

    levels: tuple[float, ...]
    size_minus: tuple[int, ...]  # count of the full-sample set at t - gap (clamped at 0)
    size_plus: tuple[int, ...]  # count of the full-sample set at t + gap
    ratio: tuple[float, ...]
    sandwich_ok: tuple[bool, ...]
    good: tuple[bool, ...]
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


def _no_violations(name: str, violations: int, **components) -> BoundCertificate:
    """The certificate that a check found no violation: the count against 0."""
    return BoundCertificate(name, lhs=float(violations), rhs=0.0, components=components)


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
) -> BoundCertificate:
    """Check the aggregation stability inequality on random subsets and rows.

    For a random nonempty subset G of hypotheses and a random row i, the loss
    of the aggregate must not exceed the rule's declared stability constant
    times the average loss over G: factor 1 for averaging under a loss convex
    in the prediction (Jensen), factor 2 for majority vote under the 0-1 loss
    (a wrong vote means at least half of G is wrong, and no smaller constant
    works, e.g. voting {1, 1, 0} against response 0).  Each trial evaluates
    the loss of row i on G alone, so no loss matrix is built.  A trial whose
    two sides do not compare (a NaN loss) counts as a violation.  The
    certificate ``aggregation-stability`` holds the violations against 0,
    with the trials, the declared constant and the first violation found.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    n, m = table.values.shape
    if len(sample) != n:
        raise ValueError(f"sample has {len(sample)} responses but table has {n} rows")
    rng = np.random.default_rng(seed)
    violations = 0
    first: Optional[dict] = None
    for trial in range(trials):
        size = int(rng.integers(1, m + 1))
        subset = np.sort(rng.choice(m, size=size, replace=False))
        i = int(rng.integers(n))
        prediction = agg(subset, table, i)
        lhs = float(loss.evaluate(prediction, sample.responses[i]))
        losses = loss.evaluate(table.values[i, subset], sample.responses[i])
        rhs = agg.stability * float(losses.mean())
        if not lhs <= rhs + NUMERIC_TOL:
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
    return _no_violations("aggregation-stability", violations, trials=trials,
                          stability=agg.stability, first_violation=first)


#: bound on the entries of one row block's rows x columns temporaries in
#: ``_sandwich_violations``: a logistic pool row is a block of its own, a
#: narrow table is one or a few blocks
_SANDWICH_BLOCK_ENTRIES = 1 << 16


def _sandwich_violations(lm, totals, levels, delta, ref_full, refs=None,
                         full_order=None) -> np.ndarray:
    """Per level, the number of rows where the lower inclusion fails plus the
    number where the upper one fails.

    The full-sample set at t holds the columns with ``totals <= ref_full + t``,
    row i's leave-one-out set those with ``excl <= ref + t``, where ``excl =
    totals - lm[i]`` and ``ref`` is ``refs[i]`` or the smallest ``excl``.
    Only the full-sample totals are sorted, once (``core._full_order``, or
    ``full_order`` when the caller has it), and every row is read in that
    order.  Lower: every column in the full-sample set at t -
    delta, a prefix of the order, has ``excl - ref <= t``, checked only where
    t - delta >= 0; its largest ``excl - ref`` is the prefix maximum of
    ``excl`` less ``ref``, exact because subtracting a constant is monotone
    in floating point.  Upper: no column above the full-sample set at t +
    delta, a suffix of the order, lies in the leave-one-out set at t, so the
    suffix minimum of ``excl`` exceeds ``ref + t``.  Both sets are whole runs
    of tied totals, so the counts do not depend on the order within ties.
    The prefixes and suffixes of all levels are unions of segments of the
    order, so each row takes one maximum and one minimum per segment, and
    their running maximum and minimum over the segments.

    Two readers give the per-segment extremes.  A bool ``lm``, whose totals
    are integers (int32 from ``core._column_totals``), is read hypothesis-major
    by ``core._group_sums``, whose loss counts ``full_order`` holds: the
    segments are the groups of tied totals, and
    with strictly increasing totals ``T_g`` group g's largest ``excl`` at a
    row is ``T_g - (ones == size_g)`` and its smallest ``T_g - (ones > 0)``,
    from the row's count ``ones`` of loss-1 columns in the group; all exact
    integers.  A float ``lm`` takes one ``reduceat`` maximum and minimum per
    segment between the levels' bounds, in row blocks of at most
    ``_SANDWICH_BLOCK_ENTRIES`` entries on ``core._for_each_block``, which
    shares out rows as wide as a logistic pool row.
    """
    if full_order is None:
        full_order = _full_order(lm, totals)
    order_full, ranked_full, starts, counts = full_order
    m = ranked_full.size
    # the full-sample set at t - delta is the prefix [0, below)
    below = np.searchsorted(ranked_full, ref_full + (levels - delta), side="right")
    checkable = (levels - delta >= -NUMERIC_TOL) & (below > 0)
    # the columns above the full-sample set at t + delta are the suffix [above, m)
    above = np.searchsorted(ranked_full - ref_full, levels + delta + NUMERIC_TOL, side="right")
    # per row, each segment's largest and smallest excl
    if lm.dtype == bool:
        cuts, ones = starts, counts[0].T
        group_totals = ranked_full[cuts]
        prefix_max = group_totals - (ones == np.diff(cuts, append=m))
        suffix_min = group_totals - (ones > 0)
    else:
        # deduplicated by hand: a process's first np.unique call adds about
        # 1.3 MB to its resident set, the logistic pool's peak included
        bounds = np.sort(np.r_[0, below, above])
        cuts = bounds[(bounds < m) & np.r_[True, bounds[1:] != bounds[:-1]]]
        prefix_max, suffix_min = np.empty((2, len(lm), cuts.size), dtype=ranked_full.dtype)
        step = max(1, _SANDWICH_BLOCK_ENTRIES // m)

        def segment_extremes(lo):
            block = slice(lo, lo + step)
            excl = np.take(lm[block], order_full, axis=1)
            np.subtract(ranked_full, excl, out=excl)
            np.maximum.reduceat(excl, cuts, axis=1, out=prefix_max[block])
            np.minimum.reduceat(excl, cuts, axis=1, out=suffix_min[block])

        _for_each_block(segment_extremes, range(0, len(lm), step), m)
    # the last segment of each prefix and the first of each suffix; an empty
    # suffix (past the last segment) has nothing to check
    prefix_end = np.searchsorted(cuts, below) - 1
    suffix_start = np.searchsorted(cuts, above)
    upper_checked = suffix_start < cuts.size
    suffix_start = np.minimum(suffix_start, cuts.size - 1)
    # in place, the running maximum from the left and minimum from the right
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
    start at the gap, so this affects off-grid probing only).  The sizes and
    the sandwich check read one sort of the full-sample totals.
    """
    lm = loss_matrix(table, sample, loss)
    totals = _column_totals(lm)
    return _growth_audit(lm, totals, _full_order(lm, totals), grid, c_g)


def _growth_audit(lm, totals, full_order, grid, c_g) -> GrowthAudit:
    """``grid_growth_audit`` on the instance's loss matrix ``lm``, its totals
    and their ``core._full_order``."""
    if not c_g >= 1:
        raise ValueError(f"growth constant must be at least 1, got {c_g!r}")
    t_min = totals.min()
    levels = grid.levels
    delta = grid.gap

    ranked = full_order.ranked
    size_minus = np.searchsorted(ranked, t_min + np.maximum(levels - delta, 0.0), side="right")
    size_plus = np.searchsorted(ranked, t_min + levels + delta, side="right")

    sandwich_ok = _sandwich_violations(lm, totals, levels, delta, t_min,
                                       full_order=full_order) == 0

    ratio = size_plus / size_minus
    good = sandwich_ok & (ratio <= c_g + NUMERIC_TOL)
    columns = (levels, size_minus, size_plus, ratio, sandwich_ok, good)
    return GrowthAudit(*(tuple(c.tolist()) for c in columns),
                       good_fraction=int(good.sum()) / levels.size, c_g=c_g, delta=delta)


def run_and_audit(
    table: PredictionTable,
    sample: LabeledSample,
    loss: LossModel,
    grid: ToleranceGrid,
    agg: AggregationRule,
    c_g: float = 2.0,
) -> tuple[MlsaOutput, GrowthAudit]:
    """``run_mlsa`` and ``grid_growth_audit`` of one instance on one grid,
    with the bits of the two calls alone, from one evaluation of the class:
    one loss matrix, its totals and one ``core._full_order``, which holds the
    0/1 lattice's vote counts too when the table is bool.
    """
    lm = loss_matrix(table, sample, loss)
    totals = _column_totals(lm)
    votes = table.values.T if table.values.dtype == bool else None
    full_order = _full_order(lm, totals, votes)
    output = _mlsa(table, sample, loss, grid, agg, lm, totals, full_order)
    return output, _growth_audit(lm, totals, full_order, grid, c_g)


def verify_single_level(
    table: PredictionTable,
    sample: LabeledSample,
    loss: LossModel,
    agg: AggregationRule,
    t: float,
    c_g: float = 2.0,
) -> BoundCertificate:
    """Certify the single-level aggregate bound at a good level t.

    lhs is the LOO error of ``run_mlsa`` on the one-level grid {t}, whose gap
    is the loss bound delta: the mean loss of the per-index aggregates of the
    leave-one-out level sets at t.  rhs is (c_g / n) * (best empirical loss +
    t + delta).  The bound applies only at a level that passes the growth
    audit of that grid; at any other level the certificate fails with the
    level, its growth ratio and whether its sandwich holds as its reason.
    The run and the audit share one evaluation (``run_and_audit``).
    """
    delta = loss.delta_bound
    grid = ToleranceGrid(levels=np.array([t], dtype=float), gap=delta)
    output, growth = run_and_audit(table, sample, loss, grid, agg, c_g)
    n = table.n_samples
    rhs = c_g / n * (output.erm_loss + t + delta)
    return BoundCertificate(
        name="single-level-aggregate-bound",
        lhs=output.loo_error,
        rhs=rhs,
        components={"erm_loss": output.erm_loss, "t": t, "delta": delta, "c_g": c_g, "n": n},
        unmet=None if growth.good[0] else (
            f"level t={t} fails the growth audit "
            f"(ratio={growth.ratio[0]:.6g}, sandwich_ok={growth.sandwich_ok[0]})"
        ),
    )


#: the good fraction that the tasks' growth guarantees promise; the grid-
#: majority certificate records the bound it gives beside the measured one
NOMINAL_RHO = 0.75


def verify_grid_majority_bound(
    output: MlsaOutput, audit: GrowthAudit, erm: float
) -> BoundCertificate:
    """Certify the grid-majority LOO bound for a finished run on its grid.

    An audit of another grid raises ``GridMismatchError``.  The headline rhs
    uses the measured good fraction; the nominal fraction ``NOMINAL_RHO``
    from the task's growth guarantee (and the bound it yields) is recorded
    alongside so both can be reported.  The bound needs more than half of the
    levels good: at a measured fraction of 1/2 or less, rhs is nan and the
    certificate fails with the fraction as its reason.
    """
    grid = output.grid
    if audit.levels != tuple(grid.levels.tolist()) or audit.delta != grid.gap:
        raise GridMismatchError("growth audit was not taken on the output's grid")
    rho_hat = audit.good_fraction
    majority = rho_hat > 0.5
    n = output.medians.size
    base = erm + grid.t_max + audit.delta
    multiplier = 2 * audit.c_g / ((2 * rho_hat - 1) * n) if majority else math.nan
    rhs = multiplier * base
    rhs_nominal = 2 * audit.c_g / ((2 * NOMINAL_RHO - 1) * n) * base
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
            "rho_nominal": NOMINAL_RHO,
            "rhs_nominal": rhs_nominal,
            "multiplier": multiplier,
            "n": n,
        },
        unmet=None if majority else (
            f"grid-majority failure: measured good fraction {rho_hat:.4f} <= 1/2"
        ),
    )


def simulate_generalization(
    task,
    n: int,
    repetitions: int,
    seed: int = 0,
) -> BoundCertificate:
    """Estimate the expected held-out loss of the transductive predictor.

    Each repetition draws n + 1 i.i.d. points from the task's distribution,
    runs the full pipeline on all n + 1 covariates (the prediction at the last
    index never sees its own response), and records the loss at that last
    index.  The certificate ``generalization-bound`` holds the mean against
    multiplier * oracle_risk + complexity(n + 1) / (n + 1), with 3 standard
    errors of the mean as its tolerance.

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
    return BoundCertificate(
        name="generalization-bound",
        lhs=mean,
        rhs=task.multiplier * task.oracle_risk + complexity / total,
        components={"repetitions": repetitions, "stderr": stderr,
                    "oracle_risk": task.oracle_risk, "multiplier": task.multiplier,
                    "complexity": complexity},
        tolerance=3 * stderr,
    )
