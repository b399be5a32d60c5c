"""Core engine: losses, level sets, medians, and the full aggregation loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlsa.core import (
    LabeledSample,
    LossBoundError,
    LossModel,
    PredictionTable,
    ToleranceGrid,
    empirical_loss,
    level_set,
    loo_error,
    loss_matrix,
    lower_median,
    run_mlsa,
)
from mlsa.classification import MAJORITY_VOTE, zero_one_loss
from mlsa.regression import MEAN_AGGREGATE, builtin_losses


def make_zero_one_instance(rng, n, m):
    values = rng.integers(0, 2, size=(n, m)).astype(float)
    labels = rng.integers(0, 2, size=n).astype(float)
    return (
        PredictionTable(values, keep_duplicates=True),
        LabeledSample(labels),
        zero_one_loss(),
    )


# ---------------------------------------------------------------- containers


def test_table_dedupes_columns_by_default():
    values = np.array([[0, 1, 0], [1, 0, 1]], dtype=float)
    table = PredictionTable(values)
    assert table.n_hypotheses == 2
    # first occurrence order is preserved
    assert table.values.T.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_table_keeps_duplicates_on_request():
    values = np.array([[0, 1, 0], [1, 0, 1]], dtype=float)
    assert PredictionTable(values, keep_duplicates=True).n_hypotheses == 3


def test_zero_one_tables_are_stored_as_bool():
    bits = np.array([[0, 1, 1], [1, 0, 1]])
    for values in (bits, bits.astype(float), bits == 1):
        table = PredictionTable(values, keep_duplicates=True)
        assert table.values.dtype == bool
        assert np.array_equal(table.values, bits)


def test_table_with_other_values_stays_float():
    values = np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.5]])
    table = PredictionTable(values, keep_duplicates=True)
    assert table.values.dtype == np.float64
    assert np.array_equal(table.values, values)


@pytest.mark.parametrize("rows", [[[0.2, 0.5], [0.4, 0.7]], [[True, False], [False, True]]])
@pytest.mark.parametrize("keep_duplicates", [True, False])
def test_table_does_not_alias_the_callers_array(rows, keep_duplicates):
    values = np.array(rows)
    before = values.copy()
    table = PredictionTable(values, keep_duplicates=keep_duplicates)
    assert not np.shares_memory(table.values, values)
    values[0, 0] = np.nan if values.dtype != bool else not values[0, 0]
    assert np.array_equal(table.values, before)
    with pytest.raises(ValueError, match="read-only"):
        table.values[0, 0] = before[0, 1]


def test_zero_one_loss_matrix_is_bool():
    table, sample, loss = make_zero_one_instance(np.random.default_rng(0), 5, 4)
    lm = loss_matrix(table, sample, loss)
    assert lm.dtype == bool
    assert np.array_equal(lm, table.values != sample.responses[:, None])


ZERO_ONE_RANGE = LossModel(
    pointwise=lambda p, y: p != y,
    delta_bound=1.0,
    bound_is_range=True,
    name="zero_one_range",
)


@pytest.mark.parametrize(
    "loss", [*builtin_losses().values(), ZERO_ONE_RANGE], ids=lambda loss: loss.name
)
def test_losses_of_a_bool_table_equal_those_of_its_float_twin(loss):
    rng = np.random.default_rng(9)
    values = rng.integers(0, 2, size=(6, 5)).astype(float)
    sample = LabeledSample(rng.choice([0.0, 0.25, 1.0], size=6))
    table = PredictionTable(values, keep_duplicates=True)
    assert table.values.dtype == bool
    lm = loss_matrix(table, sample, loss)
    twin = np.asarray(loss.pointwise(values, sample.responses[:, None]), dtype=float)
    assert np.array_equal(lm, twin)
    assert lm.astype(float).tobytes() == twin.tobytes()


def test_range_bound_is_audited_on_a_bool_loss_matrix():
    table = PredictionTable(np.array([[0.0, 1.0], [1.0, 1.0]]), keep_duplicates=True)
    tight = dataclasses.replace(ZERO_ONE_RANGE, delta_bound=0.5)
    with pytest.raises(LossBoundError, match="spread 1.0 exceeds"):
        loss_matrix(table, LabeledSample([0.0, 1.0]), tight)


def test_table_rejects_empty():
    with pytest.raises(ValueError):
        PredictionTable(np.empty((0, 3)))


def test_grid_validation():
    with pytest.raises(ValueError):
        ToleranceGrid(levels=np.array([1.0, 1.0]), gap=1.0)
    with pytest.raises(ValueError):
        ToleranceGrid(levels=np.array([-1.0]), gap=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grid_rejects_non_finite_levels(bad):
    with pytest.raises(ValueError, match="finite"):
        ToleranceGrid(levels=np.array([1.0, bad]), gap=1.0)
    with pytest.raises(ValueError, match="finite"):
        ToleranceGrid(levels=np.array([1.0]), gap=bad)


def test_nan_table_entry_is_rejected_not_averaged():
    # absolute loss maps a NaN prediction to a NaN loss, which passes both
    # bound comparisons; it must be refused instead of yielding LOO = nan
    values = np.array([[0.2, np.nan], [0.4, 0.6], [1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        PredictionTable(values, keep_duplicates=True)
    # finite predictions with a non-finite loss reach loss_matrix's own check
    table = PredictionTable(np.nan_to_num(values), keep_duplicates=True)
    sample = LabeledSample([0.0, 1.0, 0.5])
    log_gap = LossModel(
        pointwise=lambda p, y: np.log(np.abs(p - y)), delta_bound=1.0
    )
    with np.errstate(divide="ignore"):
        with pytest.raises(LossBoundError, match="non-finite"):
            loss_matrix(table, sample, log_gap)
        grid = ToleranceGrid(levels=np.array([1.0, 2.0]), gap=1.0)
        with pytest.raises(LossBoundError):
            run_mlsa(table, sample, log_gap, grid, MEAN_AGGREGATE)
    with pytest.raises(ValueError):
        ToleranceGrid(levels=np.array([1.0]), gap=0.0)
    grid = ToleranceGrid(levels=np.array([1.0, 2.0]), gap=1.0)
    assert grid.t_max == 2.0 and len(grid) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected_where_it_enters(bad):
    with pytest.raises(ValueError, match="finite"):
        PredictionTable(np.array([[0.0, 1.0], [bad, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        LabeledSample([bad, 1.0, 0.0])


def test_nan_response_never_reaches_the_zero_one_loss():
    # (pred != nan) is a finite loss of 1, so loss_matrix cannot see this NaN;
    # it used to give loo_error 1/3
    values = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    table = PredictionTable(values, keep_duplicates=True)
    with pytest.raises(ValueError, match="responses must be finite"):
        sample = LabeledSample([np.nan, 1.0, 0.0])
        grid = ToleranceGrid(levels=np.array([1.0]), gap=1.0)
        run_mlsa(table, sample, zero_one_loss(), grid, MAJORITY_VOTE)


def test_loss_bound_is_audited():
    table = PredictionTable(np.array([[0.0], [3.0]]), keep_duplicates=True)
    sample = LabeledSample([0.0, 0.0])
    bad = LossModel(
        pointwise=lambda p, y: np.abs(p - y), delta_bound=1.0
    )
    with pytest.raises(LossBoundError):
        empirical_loss_matrix = run_mlsa(
            table, sample, bad, ToleranceGrid(levels=np.array([1.0]), gap=1.0), MEAN_AGGREGATE
        )


def test_loss_returning_a_scalar_is_rejected_not_vectorized():
    # a pointwise must be vectorized: a scalar result is an error, not re-run elementwise
    flat = LossModel(
        pointwise=lambda p, y: 0.5, delta_bound=1.0, name="flat"
    )
    with pytest.raises(ValueError, match=r"'flat' returned shape \(\), expected .* \(3, 2\)"):
        flat.evaluate(np.zeros((3, 2)), np.zeros((3, 1)))
    table = PredictionTable(np.array([[0.0, 1.0], [1.0, 0.5]]), keep_duplicates=True)
    grid = ToleranceGrid(levels=np.array([1.0]), gap=1.0)
    with pytest.raises(ValueError, match="broadcast shape"):
        run_mlsa(table, LabeledSample([0.0, 1.0]), flat, grid, MEAN_AGGREGATE)
    assert float(flat.evaluate(0.0, 1.0)) == 0.5  # scalar inputs, scalar shape


def test_loss_for_bool_predictions_only_is_refused_at_float_ones_by_name():
    # bitwise operators work on a bool table, not on the float medians
    bitwise = LossModel(pointwise=lambda p, y: p & (y == 0), delta_bound=1.0, name="bitwise")
    table = PredictionTable(np.array([[1, 0], [0, 1], [1, 1]], dtype=bool))
    sample = LabeledSample([0.0, 1.0, 0.0])
    assert loss_matrix(table, sample, bitwise).dtype == bool
    grid = ToleranceGrid(levels=np.array([1.0]), gap=1.0)
    with pytest.raises(ValueError, match="'bitwise' must accept float predictions"):
        run_mlsa(table, sample, bitwise, grid, MAJORITY_VOTE)
    with pytest.raises(ValueError, match="'bitwise' must accept float predictions"):
        bitwise.evaluate(np.array([0.5, 1.0]), np.array([0.0, 1.0]))


# ------------------------------------------------------------- empirical_loss


def test_empirical_loss_perfect_hypothesis_is_zero():
    table = PredictionTable(np.array([[1.0], [0.0], [1.0]]), keep_duplicates=True)
    sample = LabeledSample([1.0, 0.0, 1.0])
    assert empirical_loss(table, sample, zero_one_loss(), 0) == 0.0


def test_empirical_loss_exclusion_drops_one_row():
    # per-row losses are [1, 0, 1]; dropping row 0 leaves 1
    table = PredictionTable(np.array([[0.0], [0.0], [0.0]]), keep_duplicates=True)
    sample = LabeledSample([1.0, 0.0, 1.0])
    loss = zero_one_loss()
    assert empirical_loss(table, sample, loss, 0) == 2.0
    assert empirical_loss(table, sample, loss, 0, exclude=0) == 1.0


def test_empirical_loss_matches_bruteforce_sum():
    rng = np.random.default_rng(11)
    table, sample, loss = make_zero_one_instance(rng, 5, 3)
    for j in range(3):
        for exclude in [None, 0, 4]:
            expected = sum(
                float(table.values[i, j] != sample.responses[i])
                for i in range(5)
                if i != exclude
            )
            got = empirical_loss(table, sample, loss, j, exclude=exclude)
            assert got == pytest.approx(expected)


def test_empirical_loss_index_errors():
    rng = np.random.default_rng(0)
    table, sample, loss = make_zero_one_instance(rng, 4, 2)
    with pytest.raises(IndexError):
        empirical_loss(table, sample, loss, 2)
    with pytest.raises(IndexError):
        empirical_loss(table, sample, loss, 0, exclude=4)


# ------------------------------------------------------------------ level_set


def _instance_with_column_losses():
    # 0-1 column losses [3, 5, 4] against all-zero responses
    values = np.array(
        [
            [1, 1, 1],
            [1, 1, 1],
            [1, 1, 1],
            [0, 1, 1],
            [0, 1, 0],
        ],
        dtype=float,
    )
    return (
        PredictionTable(values, keep_duplicates=True),
        LabeledSample(np.zeros(5)),
        zero_one_loss(),
    )


def test_level_set_enumerated_example():
    table, sample, loss = _instance_with_column_losses()
    assert level_set(table, sample, loss, 1.0).tolist() == [0, 2]


def test_level_set_zero_tolerance_is_argmin():
    table, sample, loss = _instance_with_column_losses()
    assert level_set(table, sample, loss, 0.0).tolist() == [0]


def test_level_set_large_tolerance_is_everything():
    table, sample, loss = _instance_with_column_losses()
    assert level_set(table, sample, loss, 2.0).tolist() == [0, 1, 2]


def test_level_set_rejects_negative_tolerance():
    table, sample, loss = _instance_with_column_losses()
    with pytest.raises(ValueError):
        level_set(table, sample, loss, -0.5)


def test_level_set_rejects_nan_tolerance():
    # nan < 0 is False: a NaN tolerance used to reach an empty level set
    table, sample, loss = _instance_with_column_losses()
    with pytest.raises(ValueError, match="nonnegative, got nan"):
        level_set(table, sample, loss, float("nan"))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000))
def test_level_set_monotone_and_contains_argmin(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 9)), int(rng.integers(1, 9))
    table, sample, loss = make_zero_one_instance(rng, n, m)
    for exclude in [None, int(rng.integers(n))]:
        totals = np.array(
            [empirical_loss(table, sample, loss, j, exclude=exclude) for j in range(table.n_hypotheses)]
        )
        previous = set()
        for t in [0.0, 0.5, 1.0, 2.0, 5.0]:
            members = set(level_set(table, sample, loss, t, exclude=exclude).tolist())
            assert int(np.argmin(totals)) in members
            assert previous <= members
            previous = members


# --------------------------------------------------------------- lower_median


@pytest.mark.parametrize(
    "values,expected",
    [([2.0], 2.0), ([1.0, 3.0, 2.0], 2.0), ([1.0, 2.0, 3.0, 10.0], 2.0)],
)
def test_lower_median_examples(values, expected):
    assert lower_median(values) == expected


def test_lower_median_empty_rejected():
    with pytest.raises(ValueError):
        lower_median([])


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 25))
def test_lower_median_minimizes_absolute_deviation(seed, k):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-5, 5, size=k)
    med = lower_median(values)
    objective = np.abs(values - med).sum()
    probes = rng.uniform(-6, 6, size=1000)
    probe_best = np.abs(values[None, :] - probes[:, None]).sum(axis=1).min()
    assert objective <= probe_best + 1e-9


# ------------------------------------------------------------ aggregation rules


@st.composite
def rows_and_subsets(draw):
    """A bool or quarter-valued table, a row and a nonempty column subset."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    quarters = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    entries = st.booleans() if draw(st.booleans()) else quarters
    values = np.array(draw(st.lists(entries, min_size=n * m, max_size=n * m))).reshape(n, m)
    subset = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    return values, draw(st.integers(0, n - 1)), sorted(subset)


@settings(deadline=None, max_examples=300)
@given(problem=rows_and_subsets())
# even-size majority ties, which vote 1: two bool, one quarter-valued
@example(problem=(np.array([[True, False, False, True]]), 0, [0, 1, 2, 3]))
@example(problem=(np.array([[False, True, True, False, True]]), 0, [0, 4]))
@example(problem=(np.array([[0.25, 1.0, 0.75]]), 0, [0, 2]))
def test_rule_on_one_subset_equals_the_per_value_formulas(problem):
    values, i, subset = problem
    table = PredictionTable(values, keep_duplicates=True)
    v = table.values[i, subset]
    majority = 1.0 if 2.0 * v.sum() - v.size >= 0 else 0.0
    assert MAJORITY_VOTE(subset, table, i).hex() == majority.hex()
    assert MEAN_AGGREGATE(subset, table, i).hex() == float(v.mean()).hex()


# ------------------------------------------------------------------- run_mlsa


def test_run_mlsa_single_hypothesis_echoes_it():
    rng = np.random.default_rng(5)
    values = rng.integers(0, 2, size=(6, 1)).astype(float)
    table = PredictionTable(values, keep_duplicates=True)
    sample = LabeledSample(rng.integers(0, 2, size=6).astype(float))
    grid = ToleranceGrid(levels=np.arange(1.0, 6.0), gap=1.0)
    out = run_mlsa(table, sample, zero_one_loss(), grid, MAJORITY_VOTE)
    assert np.array_equal(out.per_level, np.tile(values[:, 0], (5, 1)))
    assert np.array_equal(out.medians, values[:, 0])


def straight_line_mlsa(values, labels, levels):
    """Independent re-implementation of the aggregation loop (0-1 loss)."""
    n, m = len(values), len(values[0])
    per_level = [[None] * n for _ in levels]
    for i in range(n):
        excl = []
        for j in range(m):
            excl.append(
                sum(1 for r in range(n) if r != i and values[r][j] != labels[r])
            )
        best = min(excl)
        for k, t in enumerate(levels):
            selected = [j for j in range(m) if excl[j] <= best + t]
            vote = sum(2 * values[i][j] - 1 for j in selected)
            per_level[k][i] = 1.0 if vote >= 0 else 0.0
    medians = []
    for i in range(n):
        column = sorted(per_level[k][i] for k in range(len(levels)))
        medians.append(column[(len(levels) + 1) // 2 - 1])
    loo = sum(1.0 for i in range(n) if medians[i] != labels[i]) / n
    return per_level, medians, loo


def test_run_mlsa_matches_straight_line_reimplementation():
    values = [
        [1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0],
    ]
    labels = [1.0, 0.0, 0.0, 1.0]
    levels = [1.0, 2.0, 3.0]
    table = PredictionTable(np.array(values), keep_duplicates=True)
    sample = LabeledSample(np.array(labels))
    grid = ToleranceGrid(levels=np.array(levels), gap=1.0)
    out = run_mlsa(table, sample, zero_one_loss(), grid, MAJORITY_VOTE)
    exp_levels, exp_medians, exp_loo = straight_line_mlsa(values, labels, levels)
    assert np.allclose(out.per_level, np.array(exp_levels))
    assert np.allclose(out.medians, np.array(exp_medians))
    assert out.loo_error == pytest.approx(exp_loo)


def test_run_mlsa_realizable_zero_level_sets_are_consistent():
    rng = np.random.default_rng(23)
    n, m = 7, 5
    values = rng.integers(0, 2, size=(n, m)).astype(float)
    labels = values[:, 2].copy()  # column 2 is perfect
    table = PredictionTable(values, keep_duplicates=True)
    sample = LabeledSample(labels)
    loss = zero_one_loss()
    for i in range(n):
        selected = level_set(table, sample, loss, 0.0, exclude=i)
        expected = [
            j
            for j in range(table.n_hypotheses)
            if empirical_loss(table, sample, loss, j, exclude=i)
            == min(
                empirical_loss(table, sample, loss, jj, exclude=i)
                for jj in range(table.n_hypotheses)
            )
        ]
        assert selected.tolist() == expected
        assert 0.0 == min(
            empirical_loss(table, sample, loss, j, exclude=i) for j in selected
        )


def test_run_mlsa_rejects_mismatched_gap():
    rng = np.random.default_rng(3)
    table, sample, loss = make_zero_one_instance(rng, 4, 3)
    grid = ToleranceGrid(levels=np.array([0.5, 1.0]), gap=0.5)
    with pytest.raises(ValueError, match="gap"):
        run_mlsa(table, sample, loss, grid, MAJORITY_VOTE)


def test_run_mlsa_is_deterministic():
    rng = np.random.default_rng(29)
    table, sample, loss = make_zero_one_instance(rng, 10, 7)
    grid = ToleranceGrid(levels=np.arange(1.0, 9.0), gap=1.0)
    first = run_mlsa(table, sample, loss, grid, MAJORITY_VOTE)
    second = run_mlsa(table, sample, loss, grid, MAJORITY_VOTE)
    assert np.array_equal(first.per_level, second.per_level)
    assert np.array_equal(first.medians, second.medians)
    assert first.loo_error == second.loo_error


def test_run_mlsa_per_level_matches_level_set_recomputation():
    # float losses and the averaging fast path against a naive recomputation
    rng = np.random.default_rng(37)
    table = PredictionTable(rng.random((9, 11)), keep_duplicates=True)
    sample = LabeledSample(rng.random(9))
    loss = builtin_losses()["squared"]
    grid = ToleranceGrid(levels=loss.delta_bound * np.arange(1.0, 8.0), gap=loss.delta_bound)
    out = run_mlsa(table, sample, loss, grid, MEAN_AGGREGATE)
    for k, t in enumerate(grid.levels):
        for i in range(9):
            selected = level_set(table, sample, loss, t, exclude=i)
            assert out.per_level[k, i] == pytest.approx(
                float(table.values[i, selected].mean()), abs=1e-12
            )


# ---------------------------------------------------------------- sandwich


def _sandwich_holds(table, sample, loss, t, delta):
    for i in range(table.n_samples):
        inner = set(level_set(table, sample, loss, t, exclude=i).tolist())
        upper = set(level_set(table, sample, loss, t + delta).tolist())
        if not inner <= upper:
            return False
        if t - delta >= 0:
            lower = set(level_set(table, sample, loss, t - delta).tolist())
            if not lower <= inner:
                return False
    return True


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_level_set_sandwich_zero_one(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 10)), int(rng.integers(1, 12))
    table, sample, loss = make_zero_one_instance(rng, n, m)
    for t in [0.0, 1.0, 2.5, 4.0]:
        assert _sandwich_holds(table, sample, loss, t, loss.delta_bound)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_level_set_sandwich_squared(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 10)), int(rng.integers(2, 10))
    table = PredictionTable(rng.random((n, m)), keep_duplicates=True)
    sample = LabeledSample(rng.random(n))
    loss = builtin_losses()["squared"]
    for t in [0.0, 0.3, 1.0, 2.7]:
        assert _sandwich_holds(table, sample, loss, t, loss.delta_bound)


# ------------------------------------------------------------------ loo_error


def test_loo_error_trivial_cases():
    sample = LabeledSample([1.0, 0.0, 1.0])
    loss = zero_one_loss()
    assert loo_error([1.0, 0.0, 1.0], sample, loss) == 0.0
    assert loo_error([0.0, 1.0, 0.0], sample, loss) == 1.0


def test_loo_error_matches_mean_oracle():
    rng = np.random.default_rng(31)
    sample = LabeledSample(rng.random(9))
    predictions = rng.random(9)
    loss = builtin_losses()["absolute"]
    expected = sum(
        abs(predictions[i] - sample.responses[i]) for i in range(9)
    ) / 9.0
    assert loo_error(predictions, sample, loss) == pytest.approx(expected)


def test_loo_error_length_mismatch():
    sample = LabeledSample([1.0, 0.0])
    with pytest.raises(ValueError):
        loo_error([1.0], sample, zero_one_loss())
