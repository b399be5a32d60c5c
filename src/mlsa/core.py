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
= 2^13 rows x columns entries: one sort, one gather and one prefix sum per
block, 32 rows of a 256-column table, or one logistic pool row of about 68k
draws.  When the loss matrix and the table are both bool,
``_lattice_level_sums`` reads every size and vote sum off exact
integer sums over columns grouped by their full-sample total instead (the 0/1
lattice), bit-identical to the sorted sweep's.  A bool table is stored
hypothesis-major, each labeling (column) contiguous, and so is its loss
matrix; ``_group_sums`` gathers whole labelings into group order and counts
each group's loss-1 and vote-1 labelings per row with contiguous byte adds.
A bool loss matrix's column totals are int32 counts summed a byte per entry
(``_column_totals``).  The growth audit's and the CRN report's sandwich check
sorts only the full-sample totals (``audit._sandwich_violations``); on a bool
loss matrix it reads its extremes off the same group loss counts.
``_full_order`` is the one place that sorts the full-sample totals and sums
their groups.

A finite-class job runs ``run_mlsa`` and the growth audit on one instance, so
it evaluates the class once: ``audit.run_and_audit`` builds the loss matrix,
its totals and one ``_full_order`` (with the lattice's vote counts when the
table is bool), then runs the bodies of both steps (``_mlsa`` here) on them.
``MlsaOutput`` never holds the loss matrix.  A standalone call of either step
builds what it alone needs, no more.

The sorted path needs numpy's stable order, because its prefix sums add the
tied columns in index order.  ``np.argsort(kind="stable")`` is a merge sort
that skips numpy's SIMD sort kernels; ``_stable_argsort``, which gives every
stable order in the package, instead sorts unique packed (value, index) keys
with the default (SIMD-dispatched) sort: every dispatch path gives the same
permutation, with ties in index order.

The logistic pool's wide rows, H_A screen and member-table fill run on
``_for_each_block``: the calling thread and ``min(4, usable CPUs) - 1``
threads that the call opens and joins before it returns each take every
``workers``-th block.  numpy's sorts and ufuncs release the interpreter lock,
so the blocks overlap.  Each block does the arithmetic of the serial loop and
writes only its own slices of outputs allocated beforehand, so every output
has the same bits on any number of CPUs.  Work narrower than
``_PARALLEL_ROW_ENTRIES`` = 2^15 entries (rows, or draws) and the 0/1
kernels stay on the calling thread.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

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
    """Drop duplicate columns, keeping the first occurrence of each labeling.
    A bool table comes back hypothesis-major (``values.T`` C-contiguous), for
    the 0/1 kernels; a float one keeps the layout of ``values[:, keep]``, in
    which its column sums round."""
    if values.dtype != bool:
        _, first = np.unique(values.T, axis=0, return_index=True)
        return values[:, np.sort(first)]
    # bool labelings pack to bytes, much cheaper to compare
    _, first = np.unique(np.packbits(values.T, axis=1), axis=0, return_index=True)
    return np.take(values.T, np.sort(first), axis=0).T


@dataclass(frozen=True)
class PredictionTable:
    """Finite hypothesis class restricted to the sample covariates.

    ``values[i, j]`` is the prediction of hypothesis j at covariate i.  Columns
    are deduplicated by default because a restricted class is a set of labelings
    and the counting measure must not double-count; pass ``keep_duplicates=True``
    for user-supplied classes where multiplicity is intentional.  ``values``
    is bool when every entry is 0 or 1, else float64.  It is the table's own
    read-only array, never the caller's.  A bool table is stored
    hypothesis-major: each labeling (column) is contiguous, so ``values.T``
    is C-contiguous and the 0/1 kernels gather whole labelings; a row-major
    bool table is transposed once here.  A float table keeps its layout, in
    which its column sums round.
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
        elif values.dtype == bool:
            values = values.T.copy().T  # a C-order copy of the labelings
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
        be vectorized, take float predictions too, and return that shape.
        Bool predictions and a bool result stay bool; all else is float64."""
        predictions = np.asarray(predictions)
        if predictions.dtype != bool:
            predictions = np.asarray(predictions, dtype=float)
        responses = np.asarray(responses, dtype=float)
        shape = np.broadcast_shapes(predictions.shape, responses.shape)
        try:
            out = np.asarray(self.pointwise(predictions, responses))
        except TypeError as error:
            if predictions.dtype == bool:
                raise
            raise ValueError(f"loss {self.name or 'pointwise'!r} must accept float "
                             f"predictions: {error}") from error
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


def _column_totals(lm: np.ndarray) -> np.ndarray:
    """Full-sample totals of a loss matrix, one per column.  A bool matrix is
    read a byte per entry into int32 counts, exact below 2^31 rows: byte sums
    of up to 255 rows at a time, which cannot wrap and need no cast; a float
    matrix is summed as it is."""
    if lm.dtype != bool:
        return lm.sum(axis=0)
    totals = np.zeros(lm.shape[1], dtype=np.int32)
    for lo in range(0, len(lm), 255):
        totals += np.add.reduce(lm[lo:lo + 255].view(np.uint8), axis=0, dtype=np.uint8)
    return totals


#: bound on the entries of one row block's rows x columns temporaries in
#: ``_loo_level_sums`` (70-90 bytes per entry in all): a narrow table is swept
#: a few dozen rows at a time, a logistic pool row alone
_LOO_BLOCK_ENTRIES = 1 << 13

#: bound on the entries of the chunk of labelings that ``_group_sums``
#: gathers at a time, a byte each
_GROUP_CHUNK_ENTRIES = 1 << 19

#: bound on one row block of ``_lattice_level_sums``'s levels x rows arrays
#: (about 80 bytes per entry in all, so about 0.65 MB)
_LATTICE_LEVEL_ENTRIES = 1 << 13

#: work at least this wide (a logistic pool row, or its draws) is shared
#: out between threads by ``_for_each_block``.  Narrower work stays on the
#: calling thread: threads measured no faster on it end to end, and each
#: thread's own malloc arena adds to the peak resident set
_PARALLEL_ROW_ENTRIES = 1 << 15


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: threads that share the blocks of one ``_for_each_block`` call, the
#: calling thread included.  No more than that: each thread that runs a block
#: keeps a malloc arena of its own temporaries
_WORKERS = min(4, _usable_cpus())


def _run_share(body: Callable[[int], None], starts: Sequence[int]) -> None:
    for start in starts:
        body(start)


def _for_each_block(body: Callable[[int], None], starts: Sequence[int], width: int) -> None:
    """``body(start)`` for every start, shared out between the calling thread
    and threads of this call's own when the work is ``width`` entries wide.

    The blocks must be independent: each writes only its own slices of
    outputs allocated beforehand, with the arithmetic it would do in a plain
    loop, so the outputs do not depend on how the blocks are shared out.
    Below ``_PARALLEL_ROW_ENTRIES``, or with one block or one worker, it is a
    plain loop.  Else, of ``workers = min(_WORKERS, len(starts))`` shares,
    share g takes ``starts[g::workers]``; the calling thread runs share 0 and
    ``workers - 1`` threads, opened for this call and joined before it
    returns, the others.  If a block raises, the first exception (share 0's,
    then the others' in share order) is raised in the caller, but only once
    every share has stopped, so no output is returned half written and no
    block keeps running.
    """
    workers = min(_WORKERS, len(starts)) if width >= _PARALLEL_ROW_ENTRIES else 1
    if workers <= 1:
        _run_share(body, starts)
        return
    # leaving the block waits for every share, also when share 0 raised
    with ThreadPoolExecutor(workers - 1, thread_name_prefix="mlsa-block") as pool:
        futures = [pool.submit(_run_share, body, starts[g::workers]) for g in range(1, workers)]
        _run_share(body, starts[::workers])
    for future in futures:
        future.result()


def _take_along_rows(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(values, indices, axis=-1)`` as one 1-D ``np.take``
    (20 against 50 us on a 32 x 256 block); a single row needs no offsets."""
    if values.ndim == 2 and len(values) > 1:
        indices = indices + np.arange(0, values.size, values.shape[1])[:, None]
    return np.take(values, indices)


def _stable_argsort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exactly ``np.argsort(values, axis=-1, kind="stable")``, from one sort
    of packed keys: each entry's value bits (order-preserving, less the row's
    smallest; ``-0.0`` as ``+0.0``, every NaN one top key) above its index in
    the low ``ceil(log2 m)`` bits.  The keys are unique, so every sort kernel
    orders them alike, ties by index.  Value bits that do not fit are shifted
    out into buckets, monotone and in index order inside, so a row is in
    stable order exactly where its sorted values never decrease; other rows
    go to ``_stable_fallback`` (no NaN shares a bucket: its key is 2^52 above
    ``+inf``'s).  Returns the order and the sorted values.
    """
    shape, m = values.shape, values.shape[-1]
    values = values.reshape(-1, m)
    index_bits = (m - 1).bit_length()
    if values.dtype.kind == "f":
        key = np.add(values, 0.0).view(np.int64)  # -0.0 + 0.0 is +0.0
        np.copyto(key, np.iinfo(np.int64).max, where=np.isnan(values))
        if key.min() < 0:  # a negative float orders by its flipped magnitude bits
            key ^= (key >> 63) & np.iinfo(np.int64).max
    else:
        key = values.astype(np.int64)
    key -= key.min(axis=1, keepdims=True)  # in place: the keys become the order
    key = key.view(np.uint64)
    shift = max(0, int(key.max()).bit_length() + index_bits - 64)
    key >>= shift
    key <<= index_bits
    key |= np.arange(m, dtype=np.uint64)
    key.sort(axis=1)
    key &= np.uint64((1 << index_bits) - 1)
    order = key.view(np.intp)
    ranked = _take_along_rows(values, order)
    unstable = (ranked[:, 1:] < ranked[:, :-1]).any(axis=1)
    if unstable.any():
        _stable_fallback(values, order, ranked, unstable)
    return order.reshape(shape), ranked.reshape(shape)


def _stable_fallback(values, order, ranked, rows) -> None:
    """numpy's stable sort of the rows whose buckets collided, in place."""
    order[rows] = np.argsort(values[rows], axis=1, kind="stable")
    ranked[rows] = _take_along_rows(values[rows], order[rows])


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
    logistic pool passes ``losses.T``, whose rows are contiguous; the blocks
    go to ``_for_each_block``, which shares out rows as wide as a pool row.
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

    _for_each_block(sweep, range(0, len(lm), step), totals.size)
    return counts, sums


def _group_starts(ranked: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted ``ranked`` starts."""
    return np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])


def _group_sums(order, starts, loss, votes=None):
    """Per group of labelings ``order[starts[g]:starts[g + 1]]`` (the last one
    runs to the end of ``order``) and per row, the number of them with loss 1,
    and given ``votes`` also the numbers with vote 1 and with both: one or
    three int32 arrays of groups x rows, stacked.  ``loss`` and ``votes`` are
    bool arrays of labelings x rows, read fastest when C-contiguous, as
    ``lm.T`` and ``table.values.T`` of hypothesis-major tables are.

    Whole labelings are gathered in group order, in chunks of at most
    ``_GROUP_CHUNK_ENTRIES`` entries, and each group's are added by one
    contiguous ``np.add.reduce`` along axis 0 per count (``reduceat``,
    ``cumsum`` and ``accumulate`` along that axis run strided inner loops,
    5-30 times slower), into a byte per row for up to 255 labelings at a
    time, which cannot wrap.  When the groups outnumber the labelings of the
    largest one, as on narrow tables, the loop runs over positions instead:
    step k adds the k-th labeling of every group that has one.  The counts
    are integers, so every order of adding gives the same ones.
    """
    n = loss.shape[1]
    sizes = np.diff(starts, append=order.size)
    counts = 1 if votes is None else 3
    sums = np.zeros((counts, starts.size, n), dtype=np.int32)
    step = _GROUP_CHUNK_ENTRIES // (counts * n) + 1

    def gather(columns):
        # counts x labelings x rows: loss, then vote and both.  No index is
        # out of range; "clip" spares the copy that "raise" makes of ``out``
        chunk = np.empty((counts, columns.size, n), dtype=bool)
        np.take(loss, columns, axis=0, out=chunk[0], mode="clip")
        if votes is not None:
            np.take(votes, columns, axis=0, out=chunk[1], mode="clip")
            np.logical_and(chunk[0], chunk[1], out=chunk[2])
        return chunk.view(np.uint8)

    if starts.size > sizes.max():
        for k in range(sizes.max()):
            groups = np.flatnonzero(sizes > k)
            for lo in range(0, groups.size, step):
                part = groups[lo:lo + step]
                sums[:, part] += gather(order[starts[part] + k])
        return sums
    ends = starts + sizes
    first, last = starts.tolist(), ends.tolist()
    for lo in range(0, order.size, step):
        hi = min(lo + step, order.size)
        chunk = gather(order[lo:hi])
        for g in range(np.searchsorted(ends, lo, side="right"), np.searchsorted(starts, hi)):
            a, b = max(first[g], lo) - lo, min(last[g], hi) - lo
            for piece in range(a, b, 255):
                rows = slice(piece, min(piece + 255, b))
                sums[:, g] += np.add.reduce(chunk[:, rows], axis=1, dtype=np.uint8)
    return sums


class _FullOrder(NamedTuple):
    """The full-sample order of a loss matrix's totals (``_full_order``)."""

    order: np.ndarray
    ranked: np.ndarray
    starts: Optional[np.ndarray]
    counts: Optional[np.ndarray]


def _full_order(lm, totals, votes=None) -> _FullOrder:
    """``_stable_argsort(totals)`` and, for a bool ``lm``, where each group of
    tied totals starts in that order and the group's ``_group_sums`` counts
    at every row: its loss-1 labelings and, given ``votes`` (the bool
    table's ``values.T``), also its vote-1 ones and those with both.  The one
    place that sorts the full-sample totals: the 0/1 lattice and the
    sandwich check read it, one for both in ``audit.run_and_audit``.
    ``lm.T`` is copied once when it is not C-contiguous, as for a bool loss
    of a float table."""
    order, ranked = _stable_argsort(totals)
    if lm.dtype != bool:
        return _FullOrder(order, ranked, None, None)
    starts = _group_starts(ranked)
    counts = _group_sums(order, starts, np.ascontiguousarray(lm.T), votes)
    return _FullOrder(order, ranked, starts, counts)


def _lattice_level_sums(lm, totals, values, levels, full_order=None):
    """``_loo_level_sums`` for a bool loss matrix ``lm`` and a bool table
    ``values``, read off integer group sums with no sort of any row.

    Columns are grouped by their integer full-sample total.  Column j's
    leave-one-out total at row i is ``totals[j] - lm[i, j]``: the total of its
    group, or one less.  So the level set ``{j : totals[j] - lm[i, j] <= x}``
    holds every group with total <= x, plus the columns of the next group that
    have loss 1 at row i when that group's total is at most x + 1.  Its size
    and vote sum are sums of integer group sums, so they equal the sorted
    sweep's prefix sums exactly.  The loss, vote and vote-and-loss counts of
    every group at every row come from ``_group_sums`` over whole labelings,
    ``lm.T`` and ``values.T``, by ``_full_order`` unless ``full_order``
    already holds them; the level sets are then read in row blocks of at
    most ``_LATTICE_LEVEL_ENTRIES`` levels x rows.
    """
    if full_order is None:
        full_order = _full_order(lm, totals, values.T)
    _, ranked, starts, (ones, vote_counts, both) = full_order
    group_totals = ranked[starts]
    # the number of columns in the groups before each group, then in all
    before = np.r_[starts, ranked.size]
    next_total = np.append(group_totals, np.inf)
    n = len(lm)

    # (groups + 1) x rows: each group's loss count and vote-and-loss count,
    # zero past the last group, and the vote count of the groups before it
    zero = np.zeros((1, n), dtype=np.int32)
    ones, both = np.concatenate((ones, zero)), np.concatenate((both, zero))
    votes_before = np.cumsum(np.concatenate((zero, vote_counts)), axis=0)

    counts = np.empty((levels.size, n), dtype=np.intp)
    sums = np.empty(counts.shape)
    step = max(1, _LATTICE_LEVEL_ENTRIES // levels.size)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        # x: each row's smallest leave-one-out total plus each level
        x = group_totals[0] - (ones[0, lo:hi] > 0) + levels[:, None]
        within = np.searchsorted(group_totals, x, side="right")
        reached = next_total[within] - 1.0 <= x
        # the groups within add whole, the next group its loss-1 columns where
        # in reach; ``at`` is (within, row) as a flat position in a
        # (groups + 1) x rows array, one ``np.take`` for all rows
        at = within * n + np.arange(lo, hi)
        counts[:, lo:hi] = before[within] + np.where(reached, np.take(ones, at), 0)
        sums[:, lo:hi] = np.take(votes_before, at) + np.where(reached, np.take(both, at), 0)
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
    lm = loss_matrix(table, sample, loss)
    return _mlsa(table, sample, loss, grid, agg, lm, _column_totals(lm))


def _mlsa(table, sample, loss, grid, agg, lm, totals, full_order=None) -> MlsaOutput:
    """``run_mlsa`` on the instance's loss matrix ``lm`` and its totals; the
    0/1 lattice reads ``full_order`` (``_full_order`` with vote counts) when
    given it."""
    if not math.isclose(grid.gap, loss.delta_bound, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError(
            f"grid gap {grid.gap} must equal the loss bound {loss.delta_bound}"
        )
    if lm.dtype == bool and table.values.dtype == bool:
        sums = _lattice_level_sums(lm, totals, table.values, grid.levels, full_order)
    else:
        sums = _loo_level_sums(lm, totals, table.values, grid.levels)
    per_level = agg.combine(*sums)
    medians = _lower_medians(per_level)
    return MlsaOutput(per_level=per_level, medians=medians,
                      loo_error=loo_error(medians, sample, loss),
                      erm_loss=float(totals.min()), grid=grid)


def loo_error(predictions, sample: LabeledSample, loss: LossModel) -> float:
    """Mean pointwise loss of one prediction per sample index."""
    predictions = np.asarray(predictions, dtype=float)
    if predictions.shape != (len(sample),):
        raise ValueError(
            f"expected {len(sample)} predictions, got shape {predictions.shape}"
        )
    return float(np.mean(loss.evaluate(predictions, sample.responses)))
