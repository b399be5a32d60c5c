"""Classification task: vote rule, grids, restriction enumeration, certificate."""

import hashlib
import math
from itertools import combinations, product

import numpy as np
import pytest

from mlsa.audit import check_aggregation_stability, grid_growth_audit
from mlsa.classification import (
    MAJORITY_VOTE,
    _union_of_intervals_labelings,
    GridMismatchError,
    classification_grid,
    descriptor_vc_dimension,
    restrict_class,
    sauer_bound,
    verify_classification_bound,
    zero_one_loss,
)
from mlsa.core import LabeledSample, PredictionTable, _dedupe_columns, run_mlsa
from mlsa.generators import make_classification_instance


# ------------------------------------------------------------ 0-1 loss


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
def test_zero_one_loss_of_votes_is_the_inequality(layout):
    # bool votes take bool operations; they must give pred != resp for every
    # response, a label or not, and keep the votes' layout
    rng = np.random.default_rng(20)
    votes = layout(rng.random((6, 9)) < 0.5)
    loss = zero_one_loss()
    for responses in ([0, 1, 1, 0, 1, 0], [1, 0.5, -0.0, 2, np.inf, 0], [0.5] * 6):
        resp = np.array(responses, dtype=float)[:, None]
        got = loss.evaluate(votes, resp)
        assert got.dtype == bool and np.array_equal(got, votes != resp)
        assert got.flags.f_contiguous == votes.flags.f_contiguous
        assert np.array_equal(loss.evaluate(votes.astype(float), resp), got)
    assert loss.evaluate(np.array([0.0, 1.0, 0.5]), np.array([1.0, 1.0, 1.0])).tolist() == [1, 0, 1]


# -------------------------------------------------------------- majority vote


def _vote_table(votes):
    return PredictionTable(np.array([votes], dtype=float), keep_duplicates=True)


def test_majority_vote_basic():
    assert MAJORITY_VOTE([0, 1, 2], _vote_table([1.0, 1.0, 0.0]), 0) == 1.0
    assert MAJORITY_VOTE([0, 1, 2], _vote_table([0.0, 0.0, 1.0]), 0) == 0.0


def test_majority_vote_tie_goes_to_one():
    assert MAJORITY_VOTE([0, 1], _vote_table([1.0, 0.0]), 0) == 1.0


def test_majority_vote_empty_set_rejected():
    with pytest.raises(ValueError):
        MAJORITY_VOTE([], _vote_table([1.0]), 0)


# ----------------------------------------------------------------------- grid


def test_classification_grid_d1_n20():
    grid = classification_grid(1, 20)
    assert len(grid) == 72  # ceil(24 * ln 20) = ceil(71.897...)
    assert grid.levels[0] == 1.0 and grid.t_max == 72.0
    assert grid.gap == 1.0


def test_classification_grid_d2_n100():
    grid = classification_grid(2, 100)
    assert len(grid) == 222  # ceil(48 * ln 100) = ceil(221.048...)


def test_classification_grid_rejects_tiny_n():
    with pytest.raises(ValueError):
        classification_grid(1, 2)


# ---------------------------------------------------------------- restriction


def test_thresholds_on_three_points():
    table = restrict_class("thresholds-1d", np.array([0.3, 0.1, 0.7]))
    labelings = {tuple(col) for col in table.values.T}
    # step functions 1{x >= c} on sorted distinct points: n + 1 labelings
    assert labelings == {
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 1.0),
        (1.0, 0.0, 1.0),
        (1.0, 1.0, 1.0),
    }


def _bruteforce_interval_labelings(x):
    """All 0/1 vectors realizable by a single closed interval (or empty)."""
    found = set()
    for labeling in product([0.0, 1.0], repeat=len(x)):
        ones = [xi for xi, lab in zip(x, labeling) if lab == 1.0]
        if not ones:
            found.add(labeling)
            continue
        lo, hi = min(ones), max(ones)
        if all(
            (lab == 1.0) == (lo <= xi <= hi) for xi, lab in zip(x, labeling)
        ):
            found.add(labeling)
    return found


def test_intervals_on_three_points_match_bruteforce():
    x = np.array([0.2, 0.5, 0.9])
    table = restrict_class("intervals-1d", x)
    got = {tuple(col) for col in table.values.T}
    assert got == _bruteforce_interval_labelings(x)
    assert table.n_hypotheses == 7


def _bruteforce_union_labelings(x, k):
    """Realizable by at most k intervals: the sorted pattern has <= k one-runs."""
    order = np.argsort(x)
    found = set()
    for labeling in product([0.0, 1.0], repeat=len(x)):
        arr = np.array(labeling)[order]
        runs = int(np.sum((arr[1:] == 1.0) & (arr[:-1] == 0.0))) + int(arr[0] == 1.0)
        if runs <= k:
            found.add(labeling)
    return found


def test_unions_of_two_intervals_match_bruteforce():
    rng = np.random.default_rng(1)
    x = rng.random(7)
    table = restrict_class("unions-of-k-intervals", x, k=2)
    got = {tuple(col) for col in table.values.T}
    assert got == _bruteforce_union_labelings(x, 2)


def _unions_by_combinations(x, k):
    """The unions-of-intervals table of one column per fencepost tuple of
    ``combinations(range(n + 1), 2 * j)``, j = 0 .. k, set interval by
    interval: the enumeration order the table's bytes are pinned to."""
    n = x.size
    ranks = np.argsort(np.argsort(x, kind="stable"), kind="stable")
    columns = []
    for j in range(k + 1):
        for cuts in combinations(range(n + 1), 2 * j):
            column = np.zeros(n, dtype=bool)
            for a, b in zip(cuts[::2], cuts[1::2]):
                column[(ranks >= a) & (ranks < b)] = True
            columns.append(column)
    return np.array(columns).T


@pytest.mark.parametrize("k", [1, 2, 3])
def test_unions_enumeration_matches_the_combinations_loop(k):
    for n in range(1, 13):
        x = np.random.default_rng(n).random(n)
        values = _union_of_intervals_labelings(x, k)
        assert values.T.flags.c_contiguous
        expected = _unions_by_combinations(x, k)
        assert values.dtype == bool and values.shape == expected.shape
        assert np.array_equal(values, expected), n


@pytest.mark.parametrize("n", [1, 2])
def test_unions_of_two_intervals_on_too_few_points_are_the_single_intervals(n):
    # n + 1 < 4 fenceposts admit no pair of disjoint intervals
    x = np.random.default_rng(n).random(n)
    two = restrict_class("unions-of-k-intervals", x, k=2)
    one = restrict_class("unions-of-k-intervals", x, k=1)
    assert two.values.tolist() == one.values.tolist()
    assert {tuple(col) for col in two.values.T} == _bruteforce_union_labelings(x, 2)


def _bruteforce_rectangle_labelings(points):
    """A labeling is realizable iff its bounding box contains no excluded point."""
    n = len(points)
    found = {tuple([0.0] * n)}
    for labeling in product([0.0, 1.0], repeat=n):
        inside = [p for p, lab in zip(points, labeling) if lab == 1.0]
        if not inside:
            continue
        xs = [p[0] for p in inside]
        ys = [p[1] for p in inside]
        ok = all(
            lab == 1.0
            or not (min(xs) <= p[0] <= max(xs) and min(ys) <= p[1] <= max(ys))
            for p, lab in zip(points, labeling)
        )
        if ok:
            found.add(labeling)
    return found


def test_rectangles_match_bruteforce():
    rng = np.random.default_rng(2)
    points = rng.random((6, 2))
    table = restrict_class("axis-rectangles-2d", points)
    got = {tuple(col) for col in table.values.T}
    assert got == _bruteforce_rectangle_labelings([tuple(p) for p in points])


@pytest.mark.parametrize(
    "descriptor,covariates",
    [
        ("thresholds-1d", np.random.default_rng(8).random(9)),
        ("intervals-1d", np.random.default_rng(8).random(9)),
        ("unions-of-k-intervals", np.random.default_rng(8).random(9)),
        ("axis-rectangles-2d", np.random.default_rng(8).random((6, 2))),
    ],
)
def test_geometric_families_restrict_to_bool_tables(descriptor, covariates):
    values = restrict_class(descriptor, covariates, k=2).values
    assert values.dtype == bool
    # hypothesis-major: each labeling is contiguous
    assert values.T.flags.c_contiguous


def test_explicit_float_zero_one_table_is_stored_as_bool():
    values = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    table = PredictionTable(values, keep_duplicates=True)
    assert table.values.dtype == bool
    assert np.array_equal(table.values, values == 1.0)
    assert table.values.T.flags.c_contiguous


@pytest.mark.parametrize("keep_duplicates", [True, False])
def test_row_major_bool_table_is_stored_hypothesis_major(keep_duplicates):
    values = np.random.default_rng(19).random((40, 12)) < 0.5
    values[:, 7] = values[:, 2]
    table = PredictionTable(values, keep_duplicates=keep_duplicates)
    assert table.values.T.flags.c_contiguous and not np.shares_memory(table.values, values)
    kept = np.arange(12) if keep_duplicates else np.r_[0:7, 8:12]
    assert np.array_equal(table.values, values[:, kept])


@pytest.mark.parametrize("descriptor", ["thresholds-1d", "intervals-1d"])
@pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
def test_distinct_by_construction_families_need_no_dedup(descriptor, n):
    x = np.random.default_rng(n).permutation(n).astype(float)
    values = restrict_class(descriptor, x).values
    assert np.array_equal(values, _dedupe_columns(values))


def test_deduplicated_bool_tables_are_hypothesis_major_with_the_same_outputs():
    rng = np.random.default_rng(18)
    table = restrict_class("unions-of-k-intervals", rng.random(40), k=2)
    # the deduplicated table's labelings (columns) are contiguous
    assert table.values.dtype == bool and table.values.T.flags.c_contiguous
    # a row-major copy, read through the same kernels
    row_major = PredictionTable(table.values, keep_duplicates=True)
    object.__setattr__(row_major, "values", np.ascontiguousarray(table.values))
    assert not row_major.values.T.flags.c_contiguous
    sample = LabeledSample(rng.integers(0, 2, 40))
    loss, grid = zero_one_loss(), classification_grid(4, 40)

    def outputs(t):
        out = run_mlsa(t, sample, loss, grid, MAJORITY_VOTE)
        return [out.per_level.tobytes(), out.medians.tobytes(), out.loo_error, out.erm_loss,
                grid_growth_audit(t, sample, loss, grid)]

    assert outputs(table) == outputs(row_major)
    # a float table keeps the layout its column sums were rounded in
    floats = PredictionTable(rng.choice([0.25, 0.5], size=(6, 40)))
    assert floats.n_hypotheses < 40 and floats.values.flags.f_contiguous


@pytest.mark.parametrize(
    "descriptor, n, k, digest",
    [
        ("intervals-1d", 200, None,
         "2dc9595b40d24e603362a23ec7b6e2734c6fc65c8a090b3312e2f592da626ee5"),
        ("unions-of-k-intervals", 30, 2,
         "30494ece9e5115406eee965c255d9f21acdabd122749cc7c4d406035a839c29f"),
    ],
)
def test_interval_tables_keep_their_bytes(descriptor, n, k, digest):
    # column order sets the stable order and so every output bit; the
    # brute-force tests above compare sets of columns and miss a reordering
    values = restrict_class(descriptor, np.random.default_rng(16).random(n), k=k).values
    assert values.dtype == bool
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def test_restriction_rejects_tied_covariates():
    with pytest.raises(ValueError, match="tied"):
        restrict_class("thresholds-1d", np.array([0.5, 0.5, 0.7]))


def test_restriction_rejects_unknown_descriptor():
    with pytest.raises(ValueError, match="unknown"):
        restrict_class("halfmoons", np.array([0.1]))


@pytest.mark.parametrize(
    "descriptor,k,n",
    [("thresholds-1d", None, 30), ("intervals-1d", None, 30), ("unions-of-k-intervals", 2, 12)],
)
def test_sauer_bound_respected(descriptor, k, n):
    rng = np.random.default_rng(3)
    x = rng.random(n)
    table = restrict_class(descriptor, x, k=k or 2)
    d = descriptor_vc_dimension(descriptor, k)
    assert table.n_hypotheses <= sauer_bound(n, d)
    assert table.n_hypotheses <= (math.e * n / d) ** d


def test_rectangles_sauer_bound():
    rng = np.random.default_rng(4)
    points = rng.random((12, 2))
    table = restrict_class("axis-rectangles-2d", points)
    assert table.n_hypotheses <= sauer_bound(12, 4)


# ------------------------------------------------------- assumption and rho


def test_majority_vote_stability_zero_violations():
    rng = np.random.default_rng(5)
    for _ in range(3):
        n = int(rng.integers(5, 20))
        inst = make_classification_instance("thresholds-1d", n, 0.3, rng)
        cert = check_aggregation_stability(
            MAJORITY_VOTE, zero_one_loss(), inst.table, inst.sample, trials=300
        )
        assert cert.lhs == 0.0


@pytest.mark.parametrize("descriptor,n", [("thresholds-1d", 200), ("intervals-1d", 60)])
def test_growth_fraction_meets_nominal_value(descriptor, n):
    rng = np.random.default_rng(6)
    inst = make_classification_instance(descriptor, n, 0.2, rng)
    d = descriptor_vc_dimension(descriptor)
    audit = grid_growth_audit(
        inst.table, inst.sample, zero_one_loss(), classification_grid(d, n)
    )
    assert audit.good_fraction >= 0.75


# ---------------------------------------------------------------- certificate


def _full_run(descriptor, n, noise, seed):
    rng = np.random.default_rng(seed)
    inst = make_classification_instance(descriptor, n, noise, rng)
    d = descriptor_vc_dimension(descriptor)
    grid = classification_grid(d, n)
    output = run_mlsa(inst.table, inst.sample, zero_one_loss(), grid, MAJORITY_VOTE)
    return inst, d, output


def test_classification_bound_realizable_small_term_only():
    inst, d, output = _full_run("thresholds-1d", 60, 0.0, seed=7)
    cert = verify_classification_bound(output, inst.table, inst.sample, d, 60)
    assert cert.components["erm_loss"] == 0.0
    assert cert.lhs <= 200.0 * d * math.log(60) / 60
    assert cert.passed


def test_classification_bound_single_hypothesis():
    n = 20
    rng = np.random.default_rng(8)
    values = rng.integers(0, 2, size=(n, 1)).astype(float)
    table = PredictionTable(values, keep_duplicates=True)
    sample = LabeledSample(rng.integers(0, 2, size=n).astype(float))
    grid = classification_grid(1, n)
    output = run_mlsa(table, sample, zero_one_loss(), grid, MAJORITY_VOTE)
    cert = verify_classification_bound(output, table, sample, 1, n)
    assert cert.lhs == pytest.approx(cert.components["erm_loss"] / n)
    assert cert.passed


def test_classification_bound_noisy_thresholds_pass():
    inst, d, output = _full_run("thresholds-1d", 50, 0.1, seed=9)
    cert = verify_classification_bound(output, inst.table, inst.sample, d, 50)
    assert cert.slack >= -1e-9


def test_classification_bound_grid_mismatch_detected():
    inst, d, output = _full_run("thresholds-1d", 40, 0.1, seed=10)
    with pytest.raises(GridMismatchError):
        verify_classification_bound(output, inst.table, inst.sample, d, 41)
