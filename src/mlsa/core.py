"""Generic median-of-level-set-aggregation engine over finite hypothesis classes.

A hypothesis class restricted to the n sample covariates is a plain n x m
evaluation matrix.  Empirical losses are unnormalized sums; the leave-one-out
(LOO) error is a mean.  For each sample index i and each tolerance t in a grid,
the engine forms the near-optimal level set of hypotheses on the sample with
index i removed, aggregates their predictions at row i, and finally reports the
lower median of the per-level predictions together with the resulting LOO error.

All operations are pure functions of their inputs with fixed reduction order,
so identical inputs produce identical outputs.

Every aggregation rule depends only on the size of a level set and the sum of
its predictions at the row, so ``run_mlsa`` reads the sizes and sums of every
level set, levels x rows, off one of two sweeps picked from the dtypes, then
calls the rule's ``combine`` once on them.  The sorted sweep
(``_loo_level_sums``, shared with the logistic Monte Carlo pool) sorts the
leave-one-out totals of every row in blocks of at most ``_LOO_BLOCK_ENTRIES``
= 2^13 rows x columns entries: one sort, one repair of the tied runs, one
gather and one prefix sum per block, 32 rows of a 256-column table, or one
logistic pool row of about 68k draws.  When the loss matrix and the table are
both bool, ``_lattice_level_sums`` reads every size and vote sum off exact
integer sums over columns grouped by their full-sample total instead (the 0/1
lattice), bit-identical to the sorted sweep's.  The growth audit's and the CRN
report's sandwich check sorts only the full-sample totals
(``audit._sandwich_violations``).

The sorted path needs numpy's stable order, because its prefix sums add the
tied columns in index order.  ``np.argsort(kind="stable")`` is a merge sort
that skips numpy's SIMD sort kernels; ``_stable_argsort`` instead sorts with
the default (SIMD-dispatched) sort and re-sorts by index only the runs of
equal values.  The stable permutation is the unique sort by (value, index),
so the result is the same permutation on every dispatch path.

The logistic pool's wide rows, and the blocks in which its member tables are
filled, run on ``_for_each_block``: the calling thread and a shared pool of
``min(4, usable CPUs) - 1`` threads, created on first use, each take every
``workers``-th block.  numpy's sorts and ufuncs release the interpreter lock,
so the blocks overlap.  Each block does the arithmetic of the serial loop and
writes only its own slices of outputs allocated beforehand, so every output
has the same bits on any number of CPUs.  Rows narrower than
``_PARALLEL_ROW_ENTRIES`` = 2^15 entries and the 0/1 lattice stay on the
calling thread.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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

    Every rule depends only on the size of the subset and the sum of its
    predictions at the row (majority vote and averaging both do).
    ``combine(counts, sums)`` maps arrays of both, sums as float64, to the
    aggregates elementwise, so ``run_mlsa`` aggregates every level of every
    row in one call, and a call on one subset (``__call__``) is the same
    reduction on one count and one sum.

    ``stability`` is the rule's provable constant c in
    loss(aggregate) <= c * (average loss over the subset): 1 for averaging
    under a loss convex in the prediction (Jensen), 2 for majority vote under
    the 0-1 loss (a wrong vote means at least half the subset is wrong, no
    better constant exists).
    """

    name: str
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]
    stability: float = 1.0

    def __call__(self, indices, table: PredictionTable, i: int) -> float:
        indices = np.asarray(indices, dtype=int)
        if indices.size == 0:
            raise ValueError("cannot aggregate an empty hypothesis set")
        selected = table.values[i, indices]
        return float(self.combine(np.array(indices.size), selected.sum(dtype=float)))


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


#: bound on the entries of one row block's rows x columns temporaries in
#: ``_loo_level_sums`` (70-90 bytes per entry in all): a narrow table is swept
#: a few dozen rows at a time, a logistic pool row alone
_LOO_BLOCK_ENTRIES = 1 << 13

#: bounds on one row block of ``_lattice_level_sums``: its rows x columns
#: masks and their permuted int32 copies, and its levels x rows arrays (about
#: 80 bytes per entry in all, so about 0.65 MB)
_LATTICE_BLOCK_ENTRIES = 1 << 19
_LATTICE_LEVEL_ENTRIES = 1 << 13

#: rows at least this wide (a logistic pool row) are swept and audited a row
#: per block on the block pool.  Narrower tables stay on the calling thread:
#: threads measured no faster on them end to end, and each thread's own
#: malloc arena adds to the peak resident set
_PARALLEL_ROW_ENTRIES = 1 << 15


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: threads that share the blocks of one ``_for_each_block`` call, the
#: calling thread included
_WORKERS = min(4, _usable_cpus())

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """Drop the pool in a forked child: the parent's pool threads do not
    exist there, so a block submitted to them would never run."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _block_pool() -> ThreadPoolExecutor:
    """The shared pool of ``_WORKERS - 1`` threads, created on first use.  No
    more threads than that: each thread that runs a block keeps a malloc arena
    of its own temporaries."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="mlsa-block")
        return _pool


def _run_share(body: Callable[[int], None], starts: Sequence[int]) -> None:
    for start in starts:
        body(start)


def _for_each_block(body: Callable[[int], None], starts: Sequence[int]) -> None:
    """``body(start)`` for every start, shared out between the calling thread
    and the block pool.

    The blocks must be independent: each writes only its own slices of
    outputs allocated beforehand, with the arithmetic it would do in a plain
    loop, so the outputs do not depend on how the blocks are shared out.  Of
    ``workers = min(_WORKERS, len(starts))`` shares, share g takes
    ``starts[g::workers]``; the calling thread runs share 0 and the pool's
    ``_WORKERS - 1`` threads the others.  With one worker it is a plain loop.
    If a block raises, the first exception (share 0's, then the pool's in
    share order) is raised in the caller, but only once every share has
    stopped, so no output is returned half written and no block keeps
    running.  ``body`` must never call ``_for_each_block``: a block that waits
    on the pool from inside a pool thread can deadlock a one-thread pool.
    """
    workers = min(_WORKERS, len(starts))
    if workers <= 1:
        _run_share(body, starts)
        return
    pool = _block_pool()
    futures = [pool.submit(_run_share, body, starts[g::workers]) for g in range(1, workers)]
    try:
        _run_share(body, starts[::workers])
    finally:
        errors = [future.exception() for future in futures]  # waits for each share
    for error in errors:
        if error is not None:
            raise error


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


def _loo_level_sums(lm, totals, values, levels, refs=None):
    """Sizes of the leave-one-out level sets of every row and the sums of
    ``values[i]`` over them, levels x rows, as prefixes of one sort per row.

    Per block of rows (a slice of at most ``_LOO_BLOCK_ENTRIES`` entries, or
    one row), the leave-one-out totals ``excl = totals - lm[rows]`` are
    argsorted along each row.  Row i's level set at t is the first ``count``
    entries of its order, the columns with ``excl <= ref + t``, where ``ref``
    is the row's smallest ``excl`` or ``refs[i]``.  One ``cumsum`` along the
    block's rows adds in sequence, so every sum has the bits of its row's own
    1-D prefix sum, and ``_stable_argsort`` makes the order numpy's stable one
    on every CPU, so those prefix sums add in the same order everywhere.  The
    logistic pool passes ``losses.T``, whose rows are contiguous; rows of at
    least ``_PARALLEL_ROW_ENTRIES`` go to ``_for_each_block``, a row a block.
    """
    counts = np.empty((levels.size, len(lm)), dtype=np.intp)
    sums = np.empty(counts.shape)
    step = max(1, _LOO_BLOCK_ENTRIES // totals.size)

    def sweep(lo):
        rows = slice(lo, lo + step)
        order, ranked = _stable_argsort(totals - lm[rows])
        ref = ranked[:, :1] if refs is None else refs[rows, None]
        block_counts = np.array(
            [r.searchsorted(t, side="right") for r, t in zip(ranked, ref + levels)]
        )
        counts[:, rows] = block_counts.T
        prefix = np.cumsum(_take_along_rows(values[rows], order), axis=1)
        sums[:, rows] = np.where(block_counts > 0, _take_along_rows(prefix, block_counts - 1), 0).T

    starts = range(0, len(lm), step)
    if totals.size >= _PARALLEL_ROW_ENTRIES:
        _for_each_block(sweep, starts)
    else:
        for lo in starts:
            sweep(lo)
    return counts, sums


def _lattice_level_sums(lm, totals, values, levels):
    """``_loo_level_sums`` for a bool loss matrix ``lm`` and a bool table
    ``values``, read off integer group sums with no sort of any row.

    Columns are grouped by their integer full-sample total.  Column j's
    leave-one-out total at row i is ``totals[j] - lm[i, j]``: the total of its
    group, or one less.  So the level set ``{j : totals[j] - lm[i, j] <= x}``
    holds every group with total <= x, plus the columns of the next group that
    have loss 1 at row i when that group's total is at most x + 1.  Its size
    and vote sum are sums of integer group sums, so they equal the sorted
    sweep's prefix sums exactly.  Rows go in blocks of at most
    ``_LATTICE_BLOCK_ENTRIES`` rows x columns and ``_LATTICE_LEVEL_ENTRIES``
    levels x rows; a block's group sums are groups x rows.
    """
    order = np.argsort(totals, kind="stable")
    ranked = totals[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    group_totals = ranked[starts]
    # the number of columns in the groups before each group, then in all
    before = np.r_[starts, ranked.size]
    next_total = np.append(group_totals, np.inf)

    def group_sums(mask):
        return np.add.reduceat(mask.T[order], starts, axis=0, dtype=np.int32)

    def level_sums(within_sums, edge_sums, at, reached):
        # the groups within add whole, the next group its loss-1 columns where
        # in reach; ``at`` is (within, row) as a flat position in a (groups +
        # 1) x rows array, one ``np.take`` for all rows
        edge = np.concatenate((edge_sums, np.zeros_like(edge_sums[:1])))
        return within_sums + np.where(reached, np.take(edge, at), 0)

    counts = np.empty((levels.size, len(lm)), dtype=np.intp)
    sums = np.empty(counts.shape)
    step = max(1, min(_LATTICE_BLOCK_ENTRIES // totals.size,
                      _LATTICE_LEVEL_ENTRIES // levels.size))
    for lo in range(0, len(lm), step):
        rows = slice(lo, lo + step)
        loss, votes = lm[rows], values[rows]
        ones = group_sums(loss)
        # x: each row's smallest leave-one-out total plus each level
        x = group_totals[0] - (ones[0] > 0) + levels[:, None]
        within = np.searchsorted(group_totals, x, side="right")
        reached = next_total[within] - 1.0 <= x
        at = within * ones.shape[1] + np.arange(ones.shape[1])
        counts[:, rows] = level_sums(before[within], ones, at, reached)
        prefix = np.cumsum(group_sums(votes), axis=0)
        prefix = np.concatenate((np.zeros_like(prefix[:1]), prefix))
        sums[:, rows] = level_sums(np.take(prefix, at), group_sums(votes & loss), at, reached)
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
    sandwich the method relies on.  The level sets' sizes and prediction sums
    come from the 0/1 lattice when the loss matrix and the table are bool,
    else from the sorted sweep; both give the same bits.
    """
    if len(sample) != table.n_samples:
        raise ValueError("sample/table size mismatch")
    if not math.isclose(grid.gap, loss.delta_bound, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError(
            f"grid gap {grid.gap} must equal the loss bound {loss.delta_bound}"
        )
    lm = loss_matrix(table, sample, loss)
    totals = lm.sum(axis=0)
    zero_one = lm.dtype == bool and table.values.dtype == bool
    sweep = _lattice_level_sums if zero_one else _loo_level_sums
    per_level = agg.combine(*sweep(lm, totals, table.values, grid.levels))
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
