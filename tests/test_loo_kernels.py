"""The sorted leave-one-out sweep and the sandwich check against brute force.

``run_mlsa`` and the logistic pool share one sorted sweep over the
leave-one-out totals of every row, taken a block of rows at a time; the
sandwich check of the growth audit and the logistic CRN report sorts only the
full-sample totals.  Here each is compared with set arithmetic on the
brute-force oracles ``level_set`` and ``empirical_loss``; the block sweep also
with the sweep one row at a time, byte for byte, and the sandwich kernel with
a per-row-sort oracle, on float loss matrices and on bool ones, which it reads
as integer totals.  Tables take quarter-valued entries, so losses and totals
are exact dyadic rationals: ties are frequent, and every threshold form agrees
exactly with the oracles' ``totals <= min + t``.  A finite-class job runs
its run and audit on one evaluation of the class (``audit.run_and_audit``);
the shared-evaluation tests compare that path with separate calls, bit for
bit.

The sweep's order comes from ``core._stable_argsort``, one default sort of
unique packed (value, index) keys, on 1-D arrays and on row blocks, with
numpy's stable sort as the fallback for a row whose shifted value buckets
collide out of order.  The ``stable_argsort`` tests check it, its fallback,
and the block sweep built on it, against numpy's stable sort; run them under
``NPY_DISABLE_CPU_FEATURES`` to cover each sort kernel numpy can dispatch to.

Rows as wide as a logistic pool row are swept and audited on
``core._for_each_block``, which shares them out between the calling thread and
threads it opens and joins for that call only; the block pool tests pin its
outputs byte for byte at 1, 2 and 3 workers, its errors, that no thread
outlives a call, a forked child's use of it, and that narrow tables and the
0/1 lattice never open a thread.
"""

import dataclasses
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mlsa import core
from mlsa.audit import _growth_audit, _sandwich_violations, grid_growth_audit, run_and_audit
from mlsa.core import (
    NUMERIC_TOL,
    LabeledSample,
    PredictionTable,
    ToleranceGrid,
    _column_totals,
    _full_order,
    _loo_level_sums,
    empirical_loss,
    level_set,
    loss_matrix,
    run_mlsa,
)
from mlsa.classification import MAJORITY_VOTE, classification_grid, zero_one_loss
from mlsa.cli import ExperimentConfig, main, run_experiment
from mlsa.density import density_grid, log_loss_table, smooth_class
from mlsa.generators import (
    make_classification_instance,
    make_density_instance,
    make_logistic_problem,
)
from mlsa.logistic import McConfig, crn_sandwich_report, run_mlsa_logistic
from mlsa.regression import MEAN_AGGREGATE, builtin_losses

QUARTERS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def quarter_problems(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 9))
    values = np.array(draw(st.lists(QUARTERS, min_size=n * m, max_size=n * m))).reshape(n, m)
    labels = np.array(draw(st.lists(QUARTERS, min_size=n, max_size=n)))
    steps = draw(st.lists(st.integers(0, 4 * n + 4), min_size=1, max_size=6, unique=True))
    levels = np.array(sorted(steps)) / 4.0
    loss = builtin_losses()[draw(st.sampled_from(["absolute", "squared"]))]
    table = PredictionTable(values, keep_duplicates=True)
    return table, LabeledSample(labels), loss, levels


@settings(deadline=None, max_examples=150)
@given(problem=quarter_problems())
def test_run_mlsa_matches_brute_force_level_sets(problem):
    table, sample, loss, levels = problem
    grid = ToleranceGrid(levels, gap=loss.delta_bound)
    output = run_mlsa(table, sample, loss, grid, MEAN_AGGREGATE)
    erm = float(loss_matrix(table, sample, loss).sum(axis=0).min())
    assert output.erm_loss.hex() == erm.hex()
    columns = range(table.n_hypotheses)
    for i in range(table.n_samples):
        excl = np.array([empirical_loss(table, sample, loss, j, exclude=i) for j in columns])
        for k, t in enumerate(levels):
            members = level_set(table, sample, loss, t, exclude=i)
            assert members.tolist() == np.flatnonzero(excl <= excl.min() + t).tolist()
            assert output.per_level[k, i] == MEAN_AGGREGATE(members, table, i)


@settings(deadline=None, max_examples=150)
@given(problem=quarter_problems(), gap=st.sampled_from([0.25, 0.5, 0.75, 1.0]))
def test_growth_audit_sandwich_matches_brute_force_inclusion(problem, gap):
    # gaps below the loss bound 1 let the sandwich fail
    table, sample, loss, levels = problem
    audit = grid_growth_audit(table, sample, loss, ToleranceGrid(levels, gap=gap))
    for sandwich_ok, t in zip(audit.sandwich_ok, levels):
        upper = set(level_set(table, sample, loss, t + gap).tolist())
        lower = set(level_set(table, sample, loss, t - gap).tolist()) if t >= gap else set()
        nested = True
        for i in range(table.n_samples):
            inner = set(level_set(table, sample, loss, t, exclude=i).tolist())
            nested &= lower <= inner <= upper
        assert sandwich_ok == nested


def naive_crn_violations(run):
    ws = run.workspace
    grid = run.output.grid
    totals = ws.totals  # one entry per H_A member draw
    count = 0
    for i in range(run.problem.n):
        excl = totals - ws.losses[:, i]
        for t in grid.levels:
            lower = totals <= ws.ref_full + (t - grid.gap)
            inner = excl <= ws.ref_excl[i] + t
            upper = totals - ws.ref_full <= t + grid.gap + NUMERIC_TOL
            count += bool(np.any(lower & (excl - ws.ref_excl[i] > t + NUMERIC_TOL)))
            count += bool(np.any(inner & ~upper))
    return count


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 2**16), n=st.integers(4, 9), shrink=st.sampled_from([0.1, 0.03]))
def test_crn_sandwich_matches_naive_count_at_shrunk_gaps(seed, n, shrink):
    problem = make_logistic_problem(n, 2, 1.0, 1.0, np.random.default_rng(seed))
    run = run_mlsa_logistic(problem, McConfig(samples_per_level=3000, seed=seed))
    grid = dataclasses.replace(run.output.grid, gap=shrink * run.output.grid.gap)
    shrunk = dataclasses.replace(run, output=dataclasses.replace(run.output, grid=grid))
    assert crn_sandwich_report(shrunk).violations == naive_crn_violations(shrunk)


def test_crn_sandwich_count_is_nonzero_at_a_shrunk_gap():
    problem = make_logistic_problem(9, 2, 1.0, 1.0, np.random.default_rng(1000))
    run = run_mlsa_logistic(problem, McConfig(samples_per_level=4000, seed=0))
    assert crn_sandwich_report(run).violations == 0
    grid = dataclasses.replace(run.output.grid, gap=0.1 * run.output.grid.gap)
    shrunk = dataclasses.replace(run, output=dataclasses.replace(run.output, grid=grid))
    violations = naive_crn_violations(shrunk)
    assert violations > 0
    assert crn_sandwich_report(shrunk).violations == violations


# ------------------------------------------------- sandwich kernel oracle


def sorted_rows_sandwich_violations(lm, totals, levels, delta, ref_full, refs=None):
    """The sandwich counts from one stable sort per leave-one-out row.

    Per row i, ``excl = totals - lm[i]`` is sorted, so the leave-one-out set
    at t is a prefix of its order; the lower inclusion takes the prefix
    maximum of ``excl - ref`` over the full-sample order, the upper one the
    prefix maximum of ``totals - ref_full`` over the row's order.
    """
    order_full = np.argsort(totals, kind="stable")
    ranked_full = totals[order_full]
    above_ref = totals - ref_full
    below = np.searchsorted(ranked_full, ref_full + (levels - delta), side="right")
    checkable = (levels - delta >= -NUMERIC_TOL) & (below > 0)
    last_below = np.maximum(below - 1, 0)
    bad = np.zeros(levels.size, dtype=np.intp)
    for i in range(len(lm)):
        excl = totals - lm[i]
        order = np.argsort(excl, kind="stable")
        ref = excl[order[0]] if refs is None else refs[i]
        counts = np.searchsorted(excl[order], ref + levels, side="right")
        largest_loo = np.maximum.accumulate((excl - ref)[order_full])[last_below]
        bad += checkable & (largest_loo > levels + NUMERIC_TOL)
        largest_full = np.maximum.accumulate(above_ref[order])[np.maximum(counts - 1, 0)]
        bad += (counts > 0) & (largest_full > levels + delta + NUMERIC_TOL)
    return bad


@st.composite
def sandwich_problems(draw):
    """A loss matrix with quarter-valued (long ties), continuous or bool 0/1
    entries (int32 totals, as ``_column_totals`` gives the 0-1 loss), levels,
    a gap down to a tenth of the loss bound, and references that are the
    rows' own minima or given, at or below them."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 40))
    entries = draw(st.sampled_from(
        [QUARTERS, st.floats(0.0, 1.0, allow_subnormal=False), st.booleans()]))
    lm = np.array(draw(st.lists(entries, min_size=n * m, max_size=n * m))).reshape(n, m)
    totals = _column_totals(lm)
    steps = draw(st.lists(st.integers(0, 4 * n + 4), min_size=1, max_size=8, unique=True))
    levels = np.array(sorted(steps)) / 4.0
    delta = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    slack = draw(st.sampled_from([0.0, 0.25, 0.6]))
    ref_full = float(totals.min()) - slack
    refs = None
    if draw(st.booleans()):
        refs = (totals - lm).min(axis=1) - slack
    return lm, totals, levels, delta, ref_full, refs


def test_sandwich_kernel_matches_one_sort_per_row():
    violated = {}

    @settings(deadline=None, max_examples=400)
    @given(problem=sandwich_problems())
    def check(problem):
        got = _sandwich_violations(*problem)
        expected = sorted_rows_sandwich_violations(*problem)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        kind = problem[0].dtype
        violated[kind] = violated.get(kind, False) or bool(expected.any())

    check()
    # shrunk gaps make the inclusions fail, for bool and float matrices alike,
    # so the comparison is not vacuous
    assert violated == {np.dtype(bool): True, np.dtype(float): True}


def test_sandwich_kernel_sorts_once_per_call(monkeypatch):
    table, sample, loss = tie_heavy_problem()
    lm = loss_matrix(table, sample, loss)
    totals = lm.sum(axis=0)
    sorts = []
    stable_argsort = core._stable_argsort

    def spy(values):
        sorts.append(values.size)
        return stable_argsort(values)

    # core's binding, the only one: the sandwich sorts through core._full_order
    monkeypatch.setattr(core, "_stable_argsort", spy)
    levels = np.arange(1, 41) / 4.0
    for refs in (None, (totals - lm).min(axis=1)):
        sorts.clear()
        bad = _sandwich_violations(lm, totals, levels, 0.25, totals.min(), refs)
        assert sorts == [totals.size]
        assert bad.any()
        assert np.array_equal(
            bad, sorted_rows_sandwich_violations(lm, totals, levels, 0.25, totals.min(), refs)
        )


@pytest.mark.parametrize("zero_one", [False, True], ids=["float", "bool"])
def test_growth_audit_sorts_the_totals_once(zero_one, monkeypatch):
    # the audit's growth ratios and its sandwich check share one sort, and a
    # finite-class job's run and audit share it too, under `mlsa audit` as
    # well: the sorted sweep's row blocks are 2-D, so every 1-D sort is of
    # the full-sample totals
    if zero_one:
        inst = make_classification_instance("intervals-1d", 30, 0.2, np.random.default_rng(11))
        table, sample, loss = inst.table, inst.sample, zero_one_loss()
    else:
        table, sample, loss = tie_heavy_problem()
    sorts = []
    stable_argsort = core._stable_argsort

    def spy(values):
        sorts.append(values.shape)
        return stable_argsort(values)

    monkeypatch.setattr(core, "_stable_argsort", spy)
    grid = ToleranceGrid(np.arange(1, 41) / 4.0, gap=loss.delta_bound)
    audit = grid_growth_audit(table, sample, loss, grid)
    assert sorts == [(table.n_hypotheses,)]
    assert loss_matrix(table, sample, loss).dtype == (bool if zero_one else float)
    # the sizes read off that sort are the counting measures of the full-sample sets
    totals = loss_matrix(table, sample, loss).sum(axis=0)
    for level, size_minus, size_plus in zip(audit.levels, audit.size_minus, audit.size_plus):
        bounds = (max(level - grid.gap, 0.0), level + grid.gap)
        sizes = [int((totals <= totals.min() + t).sum()) for t in bounds]
        assert [size_minus, size_plus] == sizes
    for deep_audit in (False, True):
        sorts.clear()
        run_experiment(ExperimentConfig(task="classification" if zero_one else "regression",
                                        seed=13, n=30, d=2), deep_audit=deep_audit)
        assert len([shape for shape in sorts if len(shape) == 1]) == 1


def shared_evaluation_problem(kind):
    """A bool intervals-1d table, a tie-heavy float table or a density
    log-loss table, with the grid and the aggregation of its task."""
    if kind == "intervals":
        inst = make_classification_instance("intervals-1d", 30, 0.2, np.random.default_rng(11))
        return (inst.table, inst.sample, zero_one_loss(), classification_grid(2, 30),
                MAJORITY_VOTE)
    if kind == "tie-heavy":
        table, sample, loss = tie_heavy_problem()
        return table, sample, loss, ToleranceGrid(np.arange(1, 41) / 4.0, gap=1.0), MEAN_AGGREGATE
    inst = make_density_instance(16, 8, 40, np.random.default_rng(3))
    dclass = smooth_class(inst.dclass, 1 / 40)
    table, loss, sample = log_loss_table(dclass, inst.observations)
    return (table, sample, loss, density_grid(dclass.log_ratio_bound, dclass.n_densities),
            MEAN_AGGREGATE)


@pytest.mark.parametrize("kind", ["intervals", "tie-heavy", "density"])
def test_shared_evaluation_equals_separate_run_and_audit(kind):
    table, sample, loss, grid, agg = shared_evaluation_problem(kind)
    shared, shared_audit = run_and_audit(table, sample, loss, grid, agg)
    alone = run_mlsa(table, sample, loss, grid, agg)
    audit = grid_growth_audit(table, sample, loss, grid)
    assert shared.per_level.tobytes() == alone.per_level.tobytes()
    assert shared.medians.tobytes() == alone.medians.tobytes()
    assert shared.loo_error.hex() == alone.loo_error.hex()
    assert shared.erm_loss.hex() == alone.erm_loss.hex()
    assert shared_audit == audit
    # one grid at the loss gap cannot fail the sandwich: on a shrunk gap,
    # which fails it somewhere, the audit body reads the run's full order
    # (vote counts included on a bool table) as it reads the audit's own
    shrunk = ToleranceGrid(grid.levels, gap=grid.gap / 4)
    lm = loss_matrix(table, sample, loss)
    totals = _column_totals(lm)
    votes = table.values.T if table.values.dtype == bool else None
    audits = [_growth_audit(lm, totals, _full_order(lm, totals, v), shrunk, 2.0)
              for v in (votes, None)]
    assert audits[0] == audits[1] == grid_growth_audit(table, sample, loss, shrunk)
    assert not all(audits[0].sandwich_ok)


def test_bool_job_reads_one_group_sums_call(monkeypatch):
    # the 0/1 lattice and the bool sandwich read the group counts of one
    # _group_sums call: the loss counts and the vote counts together
    table, sample, loss, grid, agg = shared_evaluation_problem("intervals")
    calls = []
    group_sums = core._group_sums

    def spy(order, starts, lm_t, votes=None):
        calls.append(votes is not None)
        return group_sums(order, starts, lm_t, votes)

    monkeypatch.setattr(core, "_group_sums", spy)
    run_and_audit(table, sample, loss, grid, agg)
    assert calls == [True]


# ------------------------------------------------------ exact stable order


def numpy_stable_argsort(values):
    order = np.argsort(values, axis=-1, kind="stable")
    return order, np.take_along_axis(values, order, axis=-1)


# few distinct values, so runs of ties are long; both zeros, NaNs of either
# sign, subnormals and infinities
TIE_FLOATS = st.sampled_from(
    [0.0, -0.0, np.nan, -np.nan, 5e-324, -5e-324, 2.5e-308, 1.0, 1.5, -2.0, np.inf, -np.inf]
)
FLOATS = st.one_of(TIE_FLOATS, st.floats(allow_subnormal=True))
INTS = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1))


def arrays(dtype, elements):
    """Arrays of 1 to 2,000 entries, as drawn, sorted or reversed."""
    layouts = st.sampled_from([lambda a: a, np.sort, lambda a: np.sort(a)[::-1].copy()])
    drawn = hnp.arrays(dtype, st.integers(1, 2000), elements=elements)
    return st.builds(lambda a, layout: layout(a), drawn, layouts)


@pytest.fixture
def fallback_rows(monkeypatch):
    """A list that records, per call of ``core._stable_fallback``, how many
    rows it sorted again."""
    rows = []
    stable_fallback = core._stable_fallback

    def spy(values, order, ranked, unstable):
        rows.append(int(unstable.sum()))
        stable_fallback(values, order, ranked, unstable)

    monkeypatch.setattr(core, "_stable_fallback", spy)
    return rows


def check_stable_argsort(values, fallback_rows, outcomes):
    """``_stable_argsort`` against numpy's stable sort; records whether the
    input had ties and whether the fallback ran on it."""
    calls = len(fallback_rows)
    got, ranked = core._stable_argsort(values)
    expected, expected_ranked = numpy_stable_argsort(values)
    assert got.dtype == np.intp
    assert np.array_equal(got, expected)
    # equal under ==: a tied run may hold both zeros, or NaNs, in another order
    assert np.array_equal(ranked, expected_ranked, equal_nan=values.dtype.kind == "f")
    ties = expected_ranked[..., 1:] == expected_ranked[..., :-1]
    outcomes.append((bool(ties.any()), len(fallback_rows) > calls))


@pytest.mark.parametrize("dtype, elements", [(np.float64, FLOATS), (np.int64, INTS)])
def test_stable_argsort_equals_numpy_stable_sort(dtype, elements, fallback_rows):
    outcomes = []

    @settings(deadline=None, max_examples=200)
    @given(values=arrays(dtype, elements))
    def check(values):
        check_stable_argsort(values, fallback_rows, outcomes)

    check()
    # the packed keys alone put tied values in index order, so the check
    # above is not vacuous
    assert (True, False) in outcomes


def tie_heavy_problem(seed=0, n=40, m=600):
    """A real-valued table from {0, 0.25, 0.5}: it stays float (off the
    0/1 lattice), and its leave-one-out totals tie in long runs."""
    rng = np.random.default_rng(seed)
    table = PredictionTable(rng.choice([0.0, 0.25, 0.5], size=(n, m)), keep_duplicates=True)
    sample = LabeledSample(rng.choice([0.0, 0.25, 0.5], size=n))
    loss = builtin_losses()["absolute"]
    return table, sample, loss


def test_stable_argsort_keeps_every_sweep_and_audit_byte_identical(monkeypatch):
    table, sample, loss = tie_heavy_problem()
    assert table.values.dtype == np.float64
    lm = loss_matrix(table, sample, loss)
    totals = lm.sum(axis=0)
    # the default sort leaves some row's ties out of index order, so the
    # index bits of the keys are what make the results below equal
    assert any(
        not np.array_equal(np.argsort(totals - row), numpy_stable_argsort(totals - row)[0])
        for row in lm
    )
    grid = ToleranceGrid(np.arange(1, 41) / 4.0, gap=loss.delta_bound)
    shrunk = ToleranceGrid(grid.levels, gap=0.25)
    # sums of non-dyadic weights, as in the logistic pool, round differently
    # in any other order of a tied run
    weights = np.random.default_rng(1).random(lm.shape)

    def results():
        counts, sums = _loo_level_sums(lm, totals, table.values, grid.levels)
        return {
            "run_mlsa": run_mlsa(table, sample, loss, grid, MEAN_AGGREGATE).per_level,
            "counts": counts,
            "sums": sums,
            "weighted sums": _loo_level_sums(lm, totals, weights, grid.levels)[1],
            "violations": _sandwich_violations(lm, totals, grid.levels, 0.25, totals.min()),
            **{
                # the audit's six columns, one row per level
                f"audit at gap {g.gap}": np.array(
                    dataclasses.astuple(grid_growth_audit(table, sample, loss, g))[:6]).T
                for g in (grid, shrunk)
            },
        }

    got = results()
    # the shrunk gap makes the sandwich fail somewhere (column 4: sandwich_ok)
    assert got["violations"].any() and not got["audit at gap 0.25"][:, 4].all()
    monkeypatch.setattr(core, "_stable_argsort", numpy_stable_argsort)
    for key, expected in results().items():
        assert got[key].dtype == expected.dtype, key
        assert got[key].tobytes() == expected.tobytes(), key


def test_stable_argsort_keeps_the_logistic_pool_byte_identical(monkeypatch):
    problem = make_logistic_problem(9, 2, 1.0, 1.0, np.random.default_rng(1000))

    def results():
        run = run_mlsa_logistic(problem, McConfig(samples_per_level=4000, seed=0))
        grid = dataclasses.replace(run.output.grid, gap=0.1 * run.output.grid.gap)
        shrunk = dataclasses.replace(run, output=dataclasses.replace(run.output, grid=grid))
        return run.output.per_level, crn_sandwich_report(shrunk).violations

    per_level, violations = results()
    assert violations > 0
    monkeypatch.setattr(core, "_stable_argsort", numpy_stable_argsort)
    expected_per_level, expected_violations = results()
    assert per_level.tobytes() == expected_per_level.tobytes()
    assert violations == expected_violations


def test_stable_argsort_on_row_blocks_equals_numpy_stable_sort(fallback_rows):
    shapes = st.tuples(st.integers(1, 12), st.integers(1, 200))
    blocks = st.one_of(
        hnp.arrays(np.float64, shapes, elements=FLOATS),
        hnp.arrays(np.int64, shapes, elements=INTS),
        # every row one value, the same in each row: tied runs end where rows meet
        st.builds(lambda shape, v: np.full(shape, v), shapes, TIE_FLOATS),
    )
    outcomes = []

    @settings(deadline=None, max_examples=200)
    @given(values=blocks)
    def check(values):
        check_stable_argsort(values, fallback_rows, outcomes)

    check()
    assert (True, False) in outcomes


# A value span too wide to sit above the 2 index bits of 4 columns, so the
# keys are shifted right, and two neighbouring values, out of index order,
# that land in one bucket: 1.0 and the next float up (a shift of 1), 4 and 5
# (a shift of 2)
COLLIDING_ROWS = {
    "float": np.array([0.0, 1e300, np.nextafter(1.0, 2.0), 1.0]),
    "int": np.array([-(2**63), 2**63 - 1, 5, 4]),
}


@pytest.mark.parametrize("kind", sorted(COLLIDING_ROWS))
@pytest.mark.parametrize("layout", ["row", "block"])
def test_stable_argsort_falls_back_where_buckets_collide(kind, layout, fallback_rows):
    row = COLLIDING_ROWS[kind]
    # a second row whose buckets keep the value order: only the first falls back
    values = row if layout == "row" else np.vstack([row, np.sort(row)])
    outcomes = []
    check_stable_argsort(values, fallback_rows, outcomes)
    assert fallback_rows == [1]
    assert outcomes == [(False, True)]


# ------------------------------------------------------- row-block sweep


def per_row_level_sums(lm, totals, values, levels, refs=None):
    """The sweep one row at a time: per row, numpy's stable sort of the
    leave-one-out totals, the counts by ``searchsorted`` and the sums read off
    a 1-D prefix sum of the row's values in that order."""
    counts = np.empty((levels.size, len(lm)), dtype=np.intp)
    sums = np.empty(counts.shape)
    for i in range(len(lm)):
        excl = totals - lm[i]
        order = np.argsort(excl, kind="stable")
        ref = excl[order[0]] if refs is None else refs[i]
        counts[:, i] = np.searchsorted(excl[order], ref + levels, side="right")
        sums[:, i] = np.concatenate(([0.0], np.cumsum(values[i][order])))[counts[:, i]]
    return counts, sums


@st.composite
def sweep_problems(draw):
    """A loss matrix with quarter-valued entries (ties inside rows, and equal
    values across row boundaries), continuous ones, or one value throughout
    (every row one tied run); values to sum that are quarters, continuous or
    bool; levels; and references that are the rows' own minima or given."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 30))

    def matrix(entries):
        return np.array(draw(st.lists(entries, min_size=n * m, max_size=n * m))).reshape(n, m)

    lm = matrix(draw(st.sampled_from(
        [QUARTERS, st.floats(0.0, 1.0, allow_subnormal=False), st.just(0.5)])))
    values = matrix(draw(st.sampled_from(
        [QUARTERS, st.floats(0.0, 1.0, allow_subnormal=False), st.booleans()])))
    totals = lm.sum(axis=0)
    steps = draw(st.lists(st.integers(0, 4 * n + 4), min_size=1, max_size=8, unique=True))
    levels = np.array(sorted(steps)) / 4.0
    refs = None
    if draw(st.booleans()):
        refs = (totals - lm).min(axis=1) - draw(st.sampled_from([0.0, 0.25, 0.6]))
    return lm, totals, values, levels, refs


@pytest.mark.parametrize("block_rows", [1, 7, None], ids=["1-row", "7-row", "default"])
def test_stable_argsort_block_sweep_matches_per_row_oracle(block_rows, monkeypatch):
    default = core._LOO_BLOCK_ENTRIES

    @settings(deadline=None, max_examples=150)
    @given(problem=sweep_problems())
    def check(problem):
        lm, totals, values, levels, refs = problem
        entries = default if block_rows is None else block_rows * totals.size
        monkeypatch.setattr(core, "_LOO_BLOCK_ENTRIES", entries)
        counts, sums = _loo_level_sums(lm, totals, values, levels, refs)
        expected_counts, expected_sums = per_row_level_sums(lm, totals, values, levels, refs)
        assert counts.dtype == expected_counts.dtype
        assert np.array_equal(counts, expected_counts)
        assert sums.tobytes() == expected_sums.tobytes()

    check()


def sweep_peak(lm, totals, values, levels):
    """tracemalloc's peak over one block sweep, after one untraced warm-up."""
    _loo_level_sums(lm, totals, values, levels)
    tracemalloc.start()
    try:
        _loo_level_sums(lm, totals, values, levels)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_sweep_memory_is_bounded_by_the_block(monkeypatch):
    rng = np.random.default_rng(0)
    n, m = 200, 256
    lm, values = rng.random((n, m)), rng.random((n, m))
    totals = lm.sum(axis=0)
    levels = np.arange(1, 101) / 2.0
    # the counts and sums, plus up to 12 eight-byte temporaries per block
    # entry: the block being sorted and the previous one, still referenced
    bound = 2 * 8 * levels.size * n + 12 * 8 * core._LOO_BLOCK_ENTRIES
    assert sweep_peak(lm, totals, values, levels) < bound
    # the whole table as one block exceeds it, so the bound does test the blocks
    monkeypatch.setattr(core, "_LOO_BLOCK_ENTRIES", n * m)
    assert sweep_peak(lm, totals, values, levels) > bound


def test_block_sweep_takes_a_row_wider_than_the_bound_alone(monkeypatch):
    # about as wide as a logistic pool row: each row is a block of its own,
    # sorted and gathered as one 1-D row, never through take_along_axis
    rng = np.random.default_rng(1)
    n, m = 4, 70_000
    assert m > core._LOO_BLOCK_ENTRIES
    lm, values = rng.random((n, m)), rng.random((n, m))
    totals = lm.sum(axis=0)
    refs = (totals - lm).min(axis=1)
    levels = np.arange(1, 41) / 8.0
    shapes = []
    stable_argsort = core._stable_argsort

    def spy(block):
        shapes.append(block.shape)
        return stable_argsort(block)

    def no_broadcast_gather(*args, **kwargs):
        raise AssertionError("a one-row block went through take_along_axis")

    monkeypatch.setattr(core, "_stable_argsort", spy)
    monkeypatch.setattr(np, "take_along_axis", no_broadcast_gather)
    counts, sums = _loo_level_sums(lm, totals, values, levels, refs)
    monkeypatch.undo()
    assert shapes == [(1, m)] * n
    expected_counts, expected_sums = per_row_level_sums(lm, totals, values, levels, refs)
    assert np.array_equal(counts, expected_counts)
    assert sums.tobytes() == expected_sums.tobytes()


# ------------------------------------------------------------ block pool


def wide_rows(n=6, m=40_000, seed=2):
    """Rows past ``core._PARALLEL_ROW_ENTRIES``, as wide as a logistic pool
    row: quarter-valued losses, so the leave-one-out totals tie in long runs,
    and continuous values to sum, whose sums round differently in any other
    order."""
    assert m >= core._PARALLEL_ROW_ENTRIES
    rng = np.random.default_rng(seed)
    lm = rng.choice([0.0, 0.25, 0.5, 0.75], size=(n, m))
    return lm, lm.sum(axis=0), rng.random((n, m)), np.arange(1, 41) / 4.0


@pytest.mark.parametrize("given_refs", [False, True], ids=["own-minimum", "refs"])
def test_wide_rows_are_byte_identical_on_any_worker_count(
    given_refs, monkeypatch, block_pool_calls
):
    lm, totals, values, levels = wide_rows()
    refs = (totals - lm).min(axis=1) - 0.25 if given_refs else None
    results = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(core, "_WORKERS", workers)
        block_pool_calls.clear()
        counts, sums = _loo_level_sums(lm, totals, values, levels, refs)
        # a gap below the loss bound 0.75, so the inclusions fail somewhere
        bad = _sandwich_violations(lm, totals, levels, 0.25, totals.min(), refs)
        # the sweep and the sandwich each share their rows out, except on one worker
        assert len(block_pool_calls) == (0 if workers == 1 else 2)
        results[workers] = [a.tobytes() for a in (counts, sums, bad)]
    assert bad.any()
    assert results[1] == results[2] == results[3]
    expected_counts, expected_sums = per_row_level_sums(lm, totals, values, levels, refs)
    expected_bad = sorted_rows_sandwich_violations(lm, totals, levels, 0.25, totals.min(), refs)
    assert results[1] == [a.tobytes() for a in (expected_counts, expected_sums, expected_bad)]


def test_narrow_tables_and_the_lattice_never_use_the_block_pool(monkeypatch, tmp_path):
    monkeypatch.setattr(core, "_WORKERS", 2)

    def refuse(*args, **kwargs):
        raise AssertionError("a narrow table opened block threads")

    monkeypatch.setattr(core, "ThreadPoolExecutor", refuse)
    # 256-column real-valued tables, as in the cli-sweep benchmark, and the
    # CLI's default logistic pool of 20,000 draws: a job that raised would
    # make the run exit 1
    for task, sets in (
        ("regression", ["class_size=256"]),
        ("density", ["class_size=256", "space_size=16"]),
        ("logistic", ["mc_samples=20000"]),
    ):
        assert main(["run", "--task", task, "--seed", "0", "--out", str(tmp_path / task),
                     "--set", "n=100", *sets]) == 0
    # the 0/1 lattice and the audit on a wide bool table: intervals at n = 200
    inst = make_classification_instance("intervals-1d", 200, 0.1, np.random.default_rng(0))
    assert inst.table.values.shape == (200, 20_101)
    assert inst.table.values.dtype == bool
    grid = classification_grid(2, 200)
    with mock.patch.object(core, "_lattice_level_sums", wraps=core._lattice_level_sums) as lattice:
        run_mlsa(inst.table, inst.sample, zero_one_loss(), grid, MAJORITY_VOTE)
    assert lattice.call_count == 1
    assert grid_growth_audit(inst.table, inst.sample, zero_one_loss(), grid).good_fraction > 0.5
    # the spy does catch a wide row
    lm, totals, values, levels = wide_rows(n=2)
    with pytest.raises(AssertionError, match="opened block threads"):
        _loo_level_sums(lm, totals, values, levels)


def block_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("mlsa-block")]


def test_concurrent_callers_share_one_pool(monkeypatch, block_pool_calls):
    # more workers than cores, racing callers and a short switch interval:
    # each call opens its own threads, every block writes its slice, and no
    # thread outlives its call
    lm, totals, values, levels = wide_rows(n=8, m=core._PARALLEL_ROW_ENTRIES)
    expected = [a.tobytes() for a in per_row_level_sums(lm, totals, values, levels)]
    monkeypatch.setattr(core, "_WORKERS", 4)
    results = [None] * 6
    start = threading.Barrier(len(results))

    def call(k):
        start.wait(timeout=60)
        results[k] = [a.tobytes() for a in _loo_level_sums(lm, totals, values, levels)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(len(results))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [expected] * len(results)
    assert len(block_pool_calls) == len(results)
    assert block_threads() == []


@pytest.mark.parametrize("failing", ["caller", "pool"])
def test_a_failing_block_is_raised_once_every_share_has_stopped(failing, monkeypatch):
    lm, totals, values, levels = wide_rows()
    monkeypatch.setattr(core, "_WORKERS", 2)
    caller = threading.get_ident()
    stable_argsort = core._stable_argsort
    finished = []

    def flaky(block):
        here = "caller" if threading.get_ident() == caller else "pool"
        if here == failing:
            raise RuntimeError(f"a block failed on the {here}")
        time.sleep(0.05)  # the other share is still running when the error is raised
        result = stable_argsort(block)
        finished.append(here)
        return result

    monkeypatch.setattr(core, "_stable_argsort", flaky)
    with pytest.raises(RuntimeError, match=f"on the {failing}"):
        _loo_level_sums(lm, totals, values, levels)
    # six one-row blocks, three a share: the other share ran to its end
    other = "pool" if failing == "caller" else "caller"
    assert finished == [other] * 3
    assert block_threads() == []


def test_a_forked_child_sweeps_wide_rows_after_the_parent_used_the_pool(
    monkeypatch, block_pool_calls
):
    lm, totals, values, levels = wide_rows()
    monkeypatch.setattr(core, "_WORKERS", 2)
    expected = [a.tobytes() for a in _loo_level_sums(lm, totals, values, levels)]
    assert len(block_pool_calls) == 1  # the parent's call opened block threads

    def sweep_in_child():
        got = [a.tobytes() for a in _loo_level_sums(lm, totals, values, levels)]
        os._exit(0 if got == expected and len(block_pool_calls) == 2 else 1)

    child = multiprocessing.get_context("fork").Process(target=sweep_in_child)
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung sweeping wide rows")
    assert child.exitcode == 0
