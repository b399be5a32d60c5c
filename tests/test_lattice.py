"""The 0/1 data paths of run_mlsa and the growth audit against the float ones.

When the loss matrix and the table are bool, run_mlsa reads every count and
vote sum off column groups of equal full-sample total (the 0/1 lattice).  The
growth audit has one sandwich check, ``audit._sandwich_violations``, whose
bool reader takes the same groups' loss counts (``core._group_sums``) and
whose float reader takes segment extremes.  The same bool loss
returning float gives a float loss matrix on the same inputs: run_mlsa then
takes the sorted sweep and the audit feeds the kernel floats, and the outputs
must agree byte for byte.  Spies check which path each side took.  Most
tables use the 0-1 loss, whose loss bit is always the vote XOR the label;
other bool losses check that the lattice reads the two bits apart.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsa import audit, core
from mlsa.audit import grid_growth_audit
from mlsa.classification import MAJORITY_VOTE, classification_grid, zero_one_loss
from mlsa.core import (
    LabeledSample,
    LossModel,
    PredictionTable,
    ToleranceGrid,
    loss_matrix,
    run_mlsa,
)
from mlsa.generators import make_classification_instance
from mlsa.regression import MEAN_AGGREGATE

def float_twin(loss):
    """The bool loss ``loss`` with a float result, which takes the sorted path."""
    return LossModel(
        pointwise=lambda p, y: loss.pointwise(p, y).astype(float),
        delta_bound=loss.delta_bound,
        name=f"{loss.name}_float",
    )


FLOAT_ZERO_ONE = float_twin(zero_one_loss())

#: bool losses that are not the vote XOR the label: false positives only, and
#: two that are constant on each row (whatever the vote), so that every
#: (vote, loss) pair occurs at a row
#: two that are constant on each row (whatever the vote), so that every
#: (vote, loss) pair occurs at a row.  They compare with ``p == 1``, not
#: ``p & ...``, because run_mlsa also evaluates them at the float medians
OTHER_BOOL_LOSSES = [
    LossModel(pointwise=lambda p, y: (p == 1) & (y == 0), delta_bound=1.0, name="false_positive"),
    LossModel(pointwise=lambda p, y: (y == 1) | (p != p), delta_bound=1.0, name="label_one"),
    LossModel(pointwise=lambda p, y: p == p, delta_bound=1.0, name="always"),
]


@contextmanager
def kernel_calls():
    """Record run_mlsa's lattice calls and the loss-matrix dtypes the audit's
    sandwich kernel receives: (number of lattice calls, [dtype, ...])."""
    dtypes = []
    sandwich_violations = audit._sandwich_violations

    def spy(lm, *args, **kwargs):
        dtypes.append(lm.dtype)
        return sandwich_violations(lm, *args, **kwargs)

    with mock.patch.object(
        core, "_lattice_level_sums", wraps=core._lattice_level_sums
    ) as lattice, mock.patch.object(audit, "_sandwich_violations", spy):
        yield lambda: (lattice.call_count, dtypes)


def assert_paths_agree(values, labels, levels, audit_gap=1.0, agg=MAJORITY_VOTE,
                       loss=zero_one_loss()):
    """Compare both paths of the bool loss ``loss`` with its float twin; the
    audit also runs at ``audit_gap``, where a gap below the loss bound lets
    the sandwich fail."""
    table = PredictionTable(np.asarray(values, dtype=float), keep_duplicates=True)
    assert table.values.dtype == bool
    sample = LabeledSample(np.asarray(labels, dtype=float))
    grid = ToleranceGrid(levels=np.asarray(levels, dtype=float), gap=1.0)
    audit_grid = ToleranceGrid(levels=grid.levels, gap=audit_gap)

    def run(loss):
        with kernel_calls() as calls:
            output = run_mlsa(table, sample, loss, grid, agg)
            audits = [grid_growth_audit(table, sample, loss, g) for g in (grid, audit_grid)]
        return output, audits, calls()

    twin = float_twin(loss)
    fast, fast_audits, fast_calls = run(loss)
    ref, ref_audits, ref_calls = run(twin)
    assert fast_calls == (1, [np.dtype(bool)] * 2)
    assert ref_calls == (0, [np.dtype(float)] * 2)
    assert fast.per_level.tobytes() == ref.per_level.tobytes()
    assert fast.medians.tobytes() == ref.medians.tobytes()
    assert fast.loo_error == ref.loo_error
    assert fast_audits == ref_audits
    for output, evaluated in ((fast, loss), (ref, twin)):
        erm = float(loss_matrix(table, sample, evaluated).sum(axis=0).min())
        assert output.erm_loss.hex() == erm.hex()
    return fast_audits


@st.composite
def zero_one_problems(draw):
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 10))
    bits = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    values = np.array(bits, dtype=float).reshape(n, m)
    # duplicated columns stay: the lattice must count multiplicity
    copies = draw(st.lists(st.integers(0, m - 1), max_size=5))
    values = np.concatenate([values, values[:, copies]], axis=1)
    labels = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=float)
    if draw(st.booleans()):
        labels = values[:, 0].copy()  # column 0 is perfect: realizable
    raw = draw(
        st.lists(
            st.floats(0.0, 2.0 * n + 3.0, allow_nan=False), min_size=1, max_size=8, unique=True
        )
    )
    levels = sorted(raw)
    if draw(st.booleans()):
        levels.append(max(levels[-1], n) + draw(st.sampled_from([0.5, 1.0, 7.0, 1e300])))
    return values, labels, levels, draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))


@settings(deadline=None, max_examples=200)
@given(problem=zero_one_problems(), block=st.sampled_from([1, 7, 1 << 19]))
def test_lattice_matches_sorted_path_on_random_tables(problem, block):
    # small blocks split the labelings into many chunks, within and between
    # groups, and the rows into many row blocks, in run_mlsa's lattice and in
    # the float sandwich reader
    with mock.patch.object(core, "_GROUP_CHUNK_ENTRIES", block), mock.patch.object(
        core, "_LATTICE_LEVEL_ENTRIES", block
    ), mock.patch.object(audit, "_SANDWICH_BLOCK_ENTRIES", block):
        assert_paths_agree(*problem)


@settings(deadline=None, max_examples=60)
@given(problem=zero_one_problems())
def test_lattice_matches_sorted_path_for_averaging(problem):
    # on 0/1 data |p - y| = [p != y], so this is the absolute loss's average
    assert_paths_agree(*problem, agg=MEAN_AGGREGATE)


def test_lattice_single_hypothesis():
    rng = np.random.default_rng(2)
    values = rng.integers(0, 2, size=(7, 1))
    assert_paths_agree(values, rng.integers(0, 2, size=7), [0.0, 1.0, 2.5, 9.0])


def test_lattice_all_zero_loss_row():
    rng = np.random.default_rng(3)
    values = rng.integers(0, 2, size=(8, 6)).astype(float)
    labels = values[:, 4].copy()
    values[2] = labels[2]  # every hypothesis is right at row 2
    assert_paths_agree(values, labels, [0.5, 1.0, 1.5, 3.25])


def test_lattice_non_integer_levels_and_levels_above_n():
    rng = np.random.default_rng(4)
    values = rng.integers(0, 2, size=(6, 9))
    labels = rng.integers(0, 2, size=6)
    levels = [0.25, 0.75, 1.5, 5.99, 6.0, 6.5, 40.0, 1e300]
    assert_paths_agree(values, labels, levels, audit_gap=0.5)


def test_bool_audit_reports_sandwich_failures():
    # with a gap below the loss bound both inclusions can fail; bool and float
    # loss matrices must agree on which levels do
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2, size=(9, 30))
    labels = rng.integers(0, 2, size=9)
    _, narrow = assert_paths_agree(values, labels, np.arange(0.0, 6.0), audit_gap=0.5)
    assert not all(narrow.sandwich_ok)


def test_bool_audit_with_real_valued_table():
    # 0-1 losses of real-valued predictions: the loss matrix is bool, so the
    # audit reads it as integers (run_mlsa keeps the sorted path, its votes
    # are not 0/1)
    rng = np.random.default_rng(5)
    values = rng.choice([0.0, 0.5, 1.0], size=(7, 8))
    sample = LabeledSample(rng.integers(0, 2, size=7).astype(float))
    table = PredictionTable(values, keep_duplicates=True)
    grid = ToleranceGrid(levels=np.arange(0.0, 6.0) * 0.75, gap=0.5)
    with kernel_calls() as calls:
        fast = grid_growth_audit(table, sample, zero_one_loss(), grid)
        ref = grid_growth_audit(table, sample, FLOAT_ZERO_ONE, grid)
    assert calls() == (0, [np.dtype(bool), np.dtype(float)])
    assert fast == ref
    assert not all(fast.sandwich_ok)


def test_lattice_matches_sorted_path_at_benchmark_size():
    inst = make_classification_instance("intervals-1d", 60, 0.1, np.random.default_rng(6))
    assert_paths_agree(
        inst.table.values, inst.sample.responses, classification_grid(2, 60).levels
    )


@settings(deadline=None, max_examples=60)
@given(problem=zero_one_problems(), loss=st.sampled_from(OTHER_BOOL_LOSSES),
       block=st.sampled_from([1, 7, 1 << 19]))
def test_lattice_matches_sorted_path_for_other_bool_losses(problem, loss, block):
    with mock.patch.object(core, "_GROUP_CHUNK_ENTRIES", block):
        assert_paths_agree(*problem, loss=loss)


@pytest.mark.parametrize("loss", OTHER_BOOL_LOSSES, ids=lambda loss: loss.name)
def test_lattice_other_bool_losses_at_benchmark_size(loss):
    # levels below the gap too: there a level set takes only part of a group
    inst = make_classification_instance("intervals-1d", 40, 0.2, np.random.default_rng(8))
    levels = np.r_[0.0, 0.5, classification_grid(2, 40).levels]
    assert_paths_agree(inst.table.values, inst.sample.responses, levels, loss=loss)


@pytest.mark.parametrize("rows", [300, 70_000])
def test_lattice_column_totals_do_not_wrap(rows):
    # more rows than uint8 (255) and uint16 (65,535) can count
    lm = np.ones((rows, 2), dtype=bool)
    totals = core._column_totals(lm)
    assert totals.dtype == np.int32
    assert totals.tolist() == lm.sum(axis=0).tolist() == [rows, rows]
    table = PredictionTable(lm, keep_duplicates=True)
    sample = LabeledSample(np.zeros(rows))
    grid = ToleranceGrid(levels=np.array([1.0, 2.0, 3.0]), gap=1.0)
    with kernel_calls() as calls:
        fast = run_mlsa(table, sample, zero_one_loss(), grid, MAJORITY_VOTE)
    assert calls()[0] == 1
    ref = run_mlsa(table, sample, FLOAT_ZERO_ONE, grid, MAJORITY_VOTE)
    assert fast.erm_loss.hex() == ref.erm_loss.hex() == float(rows).hex()
    assert fast.per_level.tobytes() == ref.per_level.tobytes()


# ------------------------------------ group sums and the 0/1 sandwich reader


@pytest.mark.parametrize("chunk", [1, 7, 1 << 19])
@pytest.mark.parametrize(
    "sizes",
    [[1] * 40, [2, 1, 3, 1, 1, 2, 1], [3, 1, 300, 2, 600], [1], [700]],
    ids=["singles", "small-groups", "large-groups", "one-labeling", "one-group"],
)
def test_group_sums_match_per_group_counts(sizes, chunk, monkeypatch):
    # many small groups take the loop over positions, few large ones the loop
    # over groups; groups of more than 255 and 510 labelings, all loss 1 at
    # row 0, count past what one byte holds
    monkeypatch.setattr(core, "_GROUP_CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(len(sizes))
    m, n = sum(sizes), 9
    loss = rng.random((m, n)) < 0.5
    loss[:, 0] = True
    votes = rng.random((m, n)) < 0.5
    order = rng.permutation(m)
    starts = np.cumsum([0] + sizes[:-1])
    groups = np.split(order, starts[1:])
    expected = np.array([[mask[g].sum(axis=0) for g in groups]
                         for mask in (loss, votes, loss & votes)])
    got = core._group_sums(order, starts, loss)
    assert got.dtype == np.int32 and np.array_equal(got, expected[:1])
    assert np.array_equal(core._group_sums(order, starts, loss, votes), expected)
    assert got[0, :, 0].tolist() == sizes


@st.composite
def bool_sandwich_problems(draw):
    """A bool loss matrix, with ties, duplicate columns, at times one group
    of equal totals, in either layout; quarter levels, a gap of 1, 1/2 or
    1/4 and references that are the rows' own minima or given."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 12))
    if draw(st.booleans()):  # one group: every column has the same total
        column = [True] * draw(st.integers(0, n))
        column += [False] * (n - len(column))
        lm = np.array([draw(st.permutations(column)) for _ in range(m)]).T
    else:
        lm = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)))
        lm = lm.reshape(n, m)
    lm = np.concatenate([lm, lm[:, draw(st.lists(st.integers(0, m - 1), max_size=5))]], axis=1)
    if draw(st.booleans()):
        lm = np.asfortranarray(lm)  # hypothesis-major, as from a bool table
    totals = core._column_totals(lm)
    steps = draw(st.lists(st.integers(0, 4 * n + 4), min_size=1, max_size=8, unique=True))
    levels = np.array(sorted(steps)) / 4.0
    delta = draw(st.sampled_from([1.0, 0.5, 0.25]))
    slack = draw(st.sampled_from([0.0, 0.25]))
    refs = (totals - lm).min(axis=1) - slack if draw(st.booleans()) else None
    return lm, totals, levels, delta, totals.min() - slack, refs


def test_bool_sandwich_reader_matches_float_reader():
    seen = set()

    @settings(deadline=None, max_examples=300)
    @given(problem=bool_sandwich_problems(), chunk=st.sampled_from([1, 7, 1 << 19]))
    def check(problem, chunk):
        lm, totals, *rest = problem
        with mock.patch.object(core, "_GROUP_CHUNK_ENTRIES", chunk):
            got = audit._sandwich_violations(lm, totals, *rest)
        expected = audit._sandwich_violations(lm.astype(float), totals.astype(float), *rest)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        seen.update({"one group": np.unique(totals).size == 1, "one column": totals.size == 1,
                     "violated": bool(expected.any())}.items())

    check()
    # the shrunk gaps make the inclusions fail, and the corner cases occur
    assert {("one group", True), ("one column", True), ("violated", True)} <= seen


def test_lattice_reads_every_layout_alike():
    # hypothesis-major tables and loss matrices as built, and row-major ones
    # (whose lm.T the lattice copies once), against the sorted sweep
    inst = make_classification_instance("intervals-1d", 30, 0.2, np.random.default_rng(9))
    values = inst.table.values
    lm = loss_matrix(inst.table, inst.sample, zero_one_loss())
    assert values.T.flags.c_contiguous and lm.T.flags.c_contiguous
    totals = core._column_totals(lm)
    levels = np.r_[0.5, classification_grid(2, 30).levels]
    expected = core._loo_level_sums(lm.astype(float), totals.astype(float),
                                    values.astype(float), levels)
    row_major = np.ascontiguousarray
    for loss_layout, table_layout in [(lm, values), (row_major(lm), row_major(values)),
                                      (row_major(lm), values), (lm, row_major(values))]:
        got = core._lattice_level_sums(loss_layout, totals, table_layout, levels)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def test_bool_audit_of_a_deduplicated_float_table():
    # test_bool_audit_with_real_valued_table's row-major float table, here
    # column-major as deduplication leaves it: its bool loss matrix is then
    # hypothesis-major, and the bool reader takes it without a copy
    rng = np.random.default_rng(10)
    table = PredictionTable(rng.choice([0.0, 0.5, 1.0], size=(8, 40)))
    assert table.values.flags.f_contiguous and table.values.dtype == float
    sample = LabeledSample(rng.integers(0, 2, size=8).astype(float))
    grid = ToleranceGrid(levels=np.arange(0.0, 8.0) * 0.75, gap=0.5)
    with kernel_calls() as calls:
        fast = grid_growth_audit(table, sample, zero_one_loss(), grid)
        ref = grid_growth_audit(table, sample, FLOAT_ZERO_ONE, grid)
    assert calls() == (0, [np.dtype(bool), np.dtype(float)])
    assert fast == ref
    assert not all(fast.sandwich_ok)
