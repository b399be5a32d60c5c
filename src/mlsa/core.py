"""Generic median-of-level-set-aggregation engine over finite hypothesis classes.

A hypothesis class restricted to the n sample covariates is a plain n x m
evaluation matrix.  Empirical losses are unnormalized sums; the leave-one-out
(LOO) error is a mean.  For each sample index i and each tolerance t in a grid,
the engine forms the near-optimal level set of hypotheses on the sample with
index i removed, aggregates their predictions at row i, and finally reports the
lower median of the per-level predictions together with the resulting LOO error.

All operations are pure functions of their inputs with fixed reduction order,
so identical inputs produce identical outputs.

The per-level aggregates take one of two paths, read off the dtypes.  The
sorted path (``_loo_level_sets``, shared with the logistic Monte Carlo pool)
sorts the leave-one-out totals of every row in blocks of at most
``_LOO_BLOCK_ENTRIES`` = 2^13 rows x columns entries: one sort, one repair of
the tied runs, one gather and one prefix sum per block, 32 rows of a
256-column table, or one logistic pool row of about 68k draws.  When the loss
matrix and the table are both bool and the rule has a ``combine``,
``run_mlsa`` takes the 0/1-lattice path instead: every level count and vote
sum is read off exact integer sums over columns grouped by their full-sample
total (``_ZeroOneLattice``), bit-identical to the sorted path's.  The growth
audit's and the CRN report's sandwich check sorts only the full-sample totals
(``audit._sandwich_violations``).

The sorted path needs numpy's stable order, because its prefix sums add the
tied columns in index order.  ``np.argsort(kind="stable")`` is a merge sort
that skips numpy's SIMD sort kernels; ``_stable_argsort`` instead sorts with
the default (SIMD-dispatched) sort and re-sorts by index only the runs of
equal values.  The stable permutation is the unique sort by (value, index),
so the result is the same permutation on every dispatch path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "PredictionTable",
    "LossModel",
    "LabeledSample",
    "ToleranceGrid",
    "MlsaOutput",
    "AggregationRule",
    "LossBoundError",
    "empirical_loss",
    "level_set",
    "lower_median",
    "run_mlsa",
    "loo_error",
    "loss_matrix",
]

#: Tolerance used when validating declared loss bounds against evaluated losses.
#: Membership comparisons in level sets never use it; it only absorbs float error
#: in assertions that are exact in real arithmetic.
NUMERIC_TOL = 1e-9


class LossBoundError(ValueError):
    """Evaluated losses exceed the declared per-sample bound."""


def _dedupe_columns(values: np.ndarray) -> np.ndarray:
    """Drop duplicate columns, keeping the first occurrence of each labeling."""
    # bool labelings pack to bytes, much cheaper to compare
    columns = np.packbits(values.T, axis=1) if values.dtype == bool else values.T
    _, first = np.unique(columns, axis=0, return_index=True)
    return values[:, np.sort(first)]


@dataclass(frozen=True)
class PredictionTable:
    """Finite hypothesis class restricted to the sample covariates.

    ``values[i, j]`` is the prediction of hypothesis j at covariate i.  Columns
    are deduplicated by default because a restricted class is a set of labelings
    and the counting measure must not double-count; pass ``keep_duplicates=True``
    for user-supplied classes where multiplicity is intentional.  ``values``
    is bool when every entry is 0 or 1 (a bool table is kept as given), else
    float64.  It is the table's own read-only array, never the caller's.
    """

    values: np.ndarray
    keep_duplicates: bool = False

    def __post_init__(self) -> None:
        source = self.values
        values = np.asarray(source)
        if values.dtype != bool:
            values = np.asarray(values, dtype=float)
            if not np.isfinite(values).all():
                raise ValueError("prediction table values must be finite")
            if np.all((values == 0.0) | (values == 1.0)):
                values = values == 1.0
        if values.ndim != 2:
            raise ValueError(f"prediction table must be 2-d, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("prediction table needs at least one row and one column")
        if not self.keep_duplicates:
            values = _dedupe_columns(values)
        elif values is source or values.base is not None:
            # asarray made no copy: the caller's later writes must not reach
            # a table that passed the checks above
            values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_hypotheses(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabeledSample:
    """Observed responses, one per table row."""

    responses: np.ndarray

    def __post_init__(self) -> None:
        responses = np.asarray(self.responses, dtype=float)
        if responses.ndim != 1 or responses.size < 1:
            raise ValueError("responses must be a nonempty 1-d sequence")
        if not np.isfinite(responses).all():
            raise ValueError("responses must be finite")
        object.__setattr__(self, "responses", responses)

    def __len__(self) -> int:
        return self.responses.size


@dataclass(frozen=True)
class LossModel:
    """Pointwise loss with a declared per-sample bound.

    ``delta_bound`` is the gap used by tolerance grids.  With
    ``bound_is_range=False`` it bounds the loss itself (0 <= loss <= bound);
    with ``bound_is_range=True`` it bounds, for every row, the spread of losses
    across the class (the log-loss case, where the loss is unbounded but
    likelihood ratios are not).  Either form is enough for the level-set
    sandwich; the evaluated table is audited against the declared form.

    The oracle inequality asks the loss to be monotone: a prediction farther
    from the response (for the log loss, a smaller probability of the
    observation) never costs less.
    """

    pointwise: Callable[[np.ndarray, np.ndarray], np.ndarray]
    delta_bound: float
    bound_is_range: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if not self.delta_bound >= 0:
            raise ValueError("delta_bound must be nonnegative")

    def evaluate(self, predictions, responses) -> np.ndarray:
        """Losses over the broadcast shape of the inputs; ``pointwise`` must
        be vectorized and return that shape.  Bool predictions and a bool
        result stay bool; all else is float64."""
        predictions = np.asarray(predictions)
        if predictions.dtype != bool:
            predictions = np.asarray(predictions, dtype=float)
        responses = np.asarray(responses, dtype=float)
        shape = np.broadcast_shapes(predictions.shape, responses.shape)
        out = np.asarray(self.pointwise(predictions, responses))
        if out.dtype != bool:
            out = np.asarray(out, dtype=float)
        if out.shape != shape:
            raise ValueError(
                f"loss {self.name or 'pointwise'!r} returned shape {out.shape}, "
                f"expected the broadcast shape {shape}"
            )
        return out


@dataclass(frozen=True)
class ToleranceGrid:
    """Ordered finite tolerance set with its gap (the per-sample loss bound)."""

    levels: np.ndarray
    gap: float

    def __post_init__(self) -> None:
        levels = np.asarray(self.levels, dtype=float)
        if levels.ndim != 1 or levels.size < 1:
            raise ValueError("tolerance grid must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(levels)):
            raise ValueError("tolerances must be finite")
        if np.any(levels < 0):
            raise ValueError("tolerances must be nonnegative")
        if levels.size > 1 and np.any(np.diff(levels) <= 0):
            raise ValueError("tolerances must be strictly increasing")
        if not (self.gap > 0 and math.isfinite(self.gap)):
            raise ValueError("gap must be positive and finite")
        object.__setattr__(self, "levels", levels)

    @property
    def t_max(self) -> float:
        return float(self.levels[-1])

    def __len__(self) -> int:
        return self.levels.size


@dataclass(frozen=True)
class MlsaOutput:
    """Per-level predictions, their lower medians, the LOO error and the ERM total.

    ``erm_loss`` is min_h L_S(h), the smallest full-sample total of the run's
    own losses, so certificates need not evaluate the class again.  Density's
    certificates sum each density's log losses in class-row order instead
    (``density._erm_loss``): column sums of the loss matrix can round
    differently, and ``results.csv`` keeps the row-order total.
    """

    per_level: np.ndarray  # |T| x n
    medians: np.ndarray  # n
    loo_error: float
    erm_loss: float
    grid: ToleranceGrid


@dataclass(frozen=True)
class AggregationRule:
    """Aggregation of the predictions of a hypothesis subset at one row.

    ``on_values`` maps the selected prediction values to the aggregate.  When
    the rule depends only on the count and sum of the selected values (majority
    vote and averaging both do), ``combine`` supplies that reduction in
    vectorized form over whole tolerance grids; it must agree exactly with
    ``on_values`` and is cross-checked in the test suite.

    ``stability`` is the rule's provable constant c in
    loss(aggregate) <= c * (average loss over the subset): 1 for averaging
    under a loss convex in the prediction (Jensen), 2 for majority vote under
    the 0-1 loss (a wrong vote means at least half the subset is wrong, no
    better constant exists).
    """

    name: str
    on_values: Callable[[np.ndarray], float]
    combine: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    stability: float = 1.0

    def __call__(self, indices, table: PredictionTable, i: int) -> float:
        indices = np.asarray(indices, dtype=int)
        if indices.size == 0:
            raise ValueError("cannot aggregate an empty hypothesis set")
        return float(self.on_values(table.values[i, indices]))


def loss_matrix(table: PredictionTable, sample: LabeledSample, loss: LossModel) -> np.ndarray:
    """Evaluate the loss of every hypothesis at every row and audit the bound."""
    if len(sample) != table.n_samples:
        raise ValueError(
            f"sample has {len(sample)} responses but table has {table.n_samples} rows"
        )
    lm = loss.evaluate(table.values, sample.responses[:, None])
    lowest, worst = float(np.min(lm)), float(np.max(lm))
    if not (math.isfinite(lowest) and math.isfinite(worst)):
        raise LossBoundError("non-finite loss encountered")
    if lowest < -NUMERIC_TOL:
        raise LossBoundError(f"negative loss encountered: {lowest}")
    if loss.bound_is_range:
        spread = float(np.max(np.subtract(lm.max(axis=1), lm.min(axis=1), dtype=float)))
        if spread > loss.delta_bound + NUMERIC_TOL:
            raise LossBoundError(
                f"per-row loss spread {spread} exceeds declared bound {loss.delta_bound}"
            )
    elif worst > loss.delta_bound + NUMERIC_TOL:
        raise LossBoundError(
            f"loss value {worst} exceeds declared bound {loss.delta_bound}"
        )
    return lm


class _ZeroOneLattice:
    """Columns of a bool loss matrix grouped by their integer full-sample total.

    Column j's leave-one-out total at row i is ``totals[j] - lm[i, j]``: the
    total of its group, or one less.  So the leave-one-out level set
    ``{j : totals[j] - lm[i, j] <= x}`` holds every group with total <= x, plus
    the columns of the next group that have loss 1 at row i when that group's
    total is at most x + 1.  Counts and 0/1 vote sums over such sets are sums
    of integer group sums, so they equal a sorted sweep's prefix sums exactly.

    Callers work through the rows in blocks (``row_blocks``).  Group sums are
    laid out groups x rows of a block; thresholds are levels x rows.
    """

    #: bound on the entries of one row block's masks and of their permuted
    #: int32 copies (rows x columns)
    BLOCK_ENTRIES = 1 << 19
    #: bound on the entries of one row block's per-level arrays (levels x
    #: rows, about 80 bytes per entry in all, so about 0.65 MB)
    LEVEL_ENTRIES = 1 << 13

    def __init__(self, totals: np.ndarray) -> None:
        self._order = np.argsort(totals, kind="stable")
        ranked = totals[self._order]
        self._starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
        #: distinct full-sample totals, increasing
        self.totals = ranked[self._starts]
        #: number of columns in each group
        self.sizes = np.diff(np.r_[self._starts, ranked.size])

    def row_blocks(self, n_rows: int, n_levels: int) -> list[slice]:
        """Row slices that keep a block's temporaries small: at most
        ``BLOCK_ENTRIES`` rows x columns and ``LEVEL_ENTRIES`` levels x rows,
        and at least one row."""
        m = self._order.size
        step = max(1, min(self.BLOCK_ENTRIES // m, self.LEVEL_ENTRIES // n_levels))
        return [slice(lo, lo + step) for lo in range(0, n_rows, step)]

    def group_sums(self, mask: np.ndarray) -> np.ndarray:
        """Sums of a block's rows x columns bool ``mask`` over each group."""
        return np.add.reduceat(mask.T[self._order], self._starts, axis=0, dtype=np.int32)

    def loo_min(self, ones: np.ndarray) -> np.ndarray:
        """The smallest leave-one-out total at each row, from the rows' ``ones``."""
        return self.totals[0] - (ones[0] > 0)

    def locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Number of groups with total <= x, and whether the next group is in reach."""
        within = np.searchsorted(self.totals, x, side="right")
        reached = np.append(self.totals, np.inf)[within] - 1.0 <= x
        return within, reached

    @staticmethod
    def level_sums(sums, edge_sums, within, reached) -> np.ndarray:
        """Per-row sums over the level sets located by ``locate``.

        ``sums`` are group sums of some weight, ``edge_sums`` the group sums of
        that weight over the loss-1 columns only: the groups within add whole,
        the next group adds its ``edge_sums`` where it is in reach.
        """
        prefix = np.cumsum(sums, axis=0)
        prefix = np.concatenate((np.zeros_like(prefix[:1]), prefix))
        edge = np.concatenate((edge_sums, np.zeros_like(edge_sums[:1])))
        return np.take_along_axis(prefix, within, axis=0) + np.where(
            reached, np.take_along_axis(edge, within, axis=0), 0
        )


def _lattice_per_level(lm, totals, values, levels, combine) -> np.ndarray:
    """``run_mlsa``'s per-level aggregates, block by block on the 0/1 lattice,
    from a bool loss matrix ``lm`` and a bool table ``values``."""
    lattice = _ZeroOneLattice(totals)
    per_level = np.empty((levels.size, lm.shape[0]))
    for rows in lattice.row_blocks(lm.shape[0], levels.size):
        loss, votes = lm[rows], values[rows]
        ones = lattice.group_sums(loss)
        located = lattice.locate(lattice.loo_min(ones) + levels[:, None])
        counts = lattice.level_sums(lattice.sizes[:, None], ones, *located)
        sums = lattice.level_sums(
            lattice.group_sums(votes), lattice.group_sums(votes & loss), *located
        )
        per_level[:, rows] = combine(counts, sums.astype(float))
    return per_level


#: bound on the entries of one row block's rows x columns temporaries in
#: ``_loo_level_sets`` (70-90 bytes per entry in all): a narrow table is swept
#: a few dozen rows at a time, a logistic pool row alone
_LOO_BLOCK_ENTRIES = 1 << 13


def _take_along_rows(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(values, indices, axis=-1)`` as one 1-D ``np.take``
    (20 against 50 us on a 32 x 256 block); a single row needs no offsets."""
    if values.ndim == 2 and len(values) > 1:
        indices = indices + np.arange(0, values.size, values.shape[1])[:, None]
    return np.take(values, indices)


def _stable_argsort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exactly ``np.argsort(values, axis=-1, kind="stable")``, from the default sort.

    The stable permutation is the unique sort by (value, index), so it is
    enough to sort by value with numpy's default (SIMD-dispatched) sort and
    then re-sort the indices inside each run of equal values.  Adjacent NaNs
    count as equal; numpy sorts them last either way.  Runs are found on the
    sorted values, and only their positions are re-sorted, by the unique
    integer key (run, index) (``_sort_tied_runs``), so a row without ties
    pays one comparison pass for the exactness.  It returns the order and the
    sorted values, which equal the values taken in that order under ``==``.
    """
    order = np.argsort(values, axis=-1)
    ranked = _take_along_rows(values, order)
    tie = ranked[..., 1:] == ranked[..., :-1]
    if ranked.dtype.kind == "f" and ranked.size and np.isnan(ranked[..., -1]).any():
        tie |= np.isnan(ranked[..., 1:]) & np.isnan(ranked[..., :-1])
    if tie.any():
        _sort_tied_runs(order, tie)
    return order, ranked


def _sort_tied_runs(order: np.ndarray, tie: np.ndarray) -> None:
    """Sort each row of ``order`` in place inside each run of positions joined
    by ``tie`` (``tie[..., k]``: positions k and k + 1 hold equal values), all
    rows in one sort of the flattened block, with a run break at each row end."""
    m, flat = order.shape[-1], order.reshape(-1)  # a view: argsort's order is contiguous
    tie = np.concatenate((tie, np.zeros_like(tie[..., :1])), axis=-1).reshape(-1)
    pos = np.flatnonzero(tie | np.r_[False, tie[:-1]])
    run = np.cumsum(~np.r_[False, tie[:-1]][pos])
    # (run, index) as one integer: run * m + index < (order.size + 1) * m
    flat[pos] = np.sort(run * m + flat[pos]) % m


def _loo_level_sets(lm, totals, levels, refs=None):
    """The leave-one-out level sets of every row, as prefixes of one sort.

    Yields per block of rows (a slice of at most ``_LOO_BLOCK_ENTRIES``
    entries, or one row) the stable argsort of the leave-one-out totals
    ``excl = totals - lm[rows]`` along each row and, rows x levels, the
    ``counts`` of columns with ``excl <= ref + t``, where ``ref`` is the row's
    smallest ``excl`` or ``refs[i]``: row i's level set at t is the first
    ``count`` entries of its order.  The logistic pool passes ``losses.T``,
    whose rows are contiguous.  ``_stable_argsort`` makes the order numpy's
    stable one on every CPU, so prefix sums over it add in the same order.
    """
    step = max(1, _LOO_BLOCK_ENTRIES // totals.size)
    for lo in range(0, len(lm), step):
        rows = slice(lo, lo + step)
        order, ranked = _stable_argsort(totals - lm[rows])
        ref = ranked[:, :1] if refs is None else refs[rows, None]
        counts = [r.searchsorted(t, side="right") for r, t in zip(ranked, ref + levels)]
        yield rows, order, np.array(counts)


def _loo_level_sums(lm, totals, values, levels, refs=None):
    """Sizes of ``_loo_level_sets`` and the sums of ``values[i]`` over them,
    levels x rows, from one ``cumsum`` along each block's rows: it adds in
    sequence, so every sum has the bits of its row's own 1-D prefix sum."""
    counts = np.empty((levels.size, len(lm)), dtype=np.intp)
    sums = np.empty(counts.shape)
    for rows, order, block_counts in _loo_level_sets(lm, totals, levels, refs):
        counts[:, rows] = block_counts.T
        prefix = np.cumsum(_take_along_rows(values[rows], order), axis=1)
        sums[:, rows] = np.where(block_counts > 0, _take_along_rows(prefix, block_counts - 1), 0).T
        del prefix  # not held while the next block is sorted: a logistic row is 0.5 MB
    return counts, sums


def empirical_loss(
    table: PredictionTable,
    sample: LabeledSample,
    loss: LossModel,
    j: int,
    exclude: Optional[int] = None,
) -> float:
    """Unnormalized loss sum of hypothesis j, optionally skipping one row."""
    if not 0 <= j < table.n_hypotheses:
        raise IndexError(f"hypothesis index {j} out of range [0, {table.n_hypotheses})")
    if exclude is not None and not 0 <= exclude < table.n_samples:
        raise IndexError(f"exclude index {exclude} out of range [0, {table.n_samples})")
    per_row = loss.evaluate(table.values[:, j], sample.responses)
    total = float(per_row.sum())
    if exclude is not None:
        total -= float(per_row[exclude])
    return total


def level_set(
    table: PredictionTable,
    sample: LabeledSample,
    loss: LossModel,
    t: float,
    exclude: Optional[int] = None,
) -> np.ndarray:
    """Indices of hypotheses within tolerance t of the best empirical loss.

    Never empty: the minimizer always qualifies.
    """
    if not t >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {t!r}")
    lm = loss_matrix(table, sample, loss)
    totals = lm.sum(axis=0)
    if exclude is not None:
        if not 0 <= exclude < table.n_samples:
            raise IndexError(f"exclude index {exclude} out of range [0, {table.n_samples})")
        totals = totals - lm[exclude]
    return np.flatnonzero(totals <= totals.min() + t)


def _lower_medians(values: np.ndarray) -> np.ndarray:
    """The ceil(k/2)-th order statistic of the k entries along axis 0."""
    return np.sort(values, axis=0)[(len(values) + 1) // 2 - 1].copy()


def lower_median(values: Sequence[float]) -> float:
    """The ceil(k/2)-th order statistic of k values.

    This is always a minimizer of sum_t |v_t - y| over y; the lower of the two
    central values is returned for even k so results are reproducible.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("median of an empty sequence")
    return float(_lower_medians(arr))


def run_mlsa(
    table: PredictionTable,
    sample: LabeledSample,
    loss: LossModel,
    grid: ToleranceGrid,
    agg: AggregationRule,
) -> MlsaOutput:
    """Median of level-set aggregation.

    For every index i and tolerance t, aggregates the predictions of the
    leave-one-out level set at row i, then takes the lower median across the
    grid and reports the mean loss of the medians.  The grid gap must equal the
    loss model's declared bound, which is what guarantees the level-set
    sandwich the method relies on.
    """
    if len(sample) != table.n_samples:
        raise ValueError("sample/table size mismatch")
    if not math.isclose(grid.gap, loss.delta_bound, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError(
            f"grid gap {grid.gap} must equal the loss bound {loss.delta_bound}"
        )
    lm = loss_matrix(table, sample, loss)
    totals = lm.sum(axis=0)
    levels = grid.levels
    if agg.combine is None:
        per_level = np.empty((levels.size, table.n_samples))
        for rows, order, counts in _loo_level_sets(lm, totals, levels):
            for i, row_order, row_counts in zip(range(table.n_samples)[rows], order, counts):
                per_level[:, i] = [agg(np.sort(row_order[:c]), table, i) for c in row_counts]
    elif lm.dtype == bool and table.values.dtype == bool:
        per_level = _lattice_per_level(lm, totals, table.values, levels, agg.combine)
    else:
        per_level = agg.combine(*_loo_level_sums(lm, totals, table.values, levels))
    medians = _lower_medians(per_level)
    err = float(np.mean(loss.evaluate(medians, sample.responses)))
    return MlsaOutput(per_level=per_level, medians=medians, loo_error=err,
                      erm_loss=float(totals.min()), grid=grid)


def loo_error(predictions, sample: LabeledSample, loss: LossModel) -> float:
    """Mean pointwise loss of one prediction per sample index."""
    predictions = np.asarray(predictions, dtype=float)
    if predictions.shape != (len(sample),):
        raise ValueError(
            f"expected {len(sample)} predictions, got shape {predictions.shape}"
        )
    return float(np.mean(loss.evaluate(predictions, sample.responses)))
