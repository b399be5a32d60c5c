"""Regression task: averaging, grids, loss catalog, certificate."""

import dataclasses

import numpy as np
import pytest

from mlsa.audit import check_aggregation_stability, grid_growth_audit
from mlsa.classification import GridMismatchError
from mlsa.core import LabeledSample, PredictionTable, ToleranceGrid, run_mlsa
from mlsa.generators import make_regression_instance
from mlsa.regression import (
    MEAN_AGGREGATE,
    builtin_losses,
    regression_grid,
    scale_loss,
    verify_regression_bound,
)


# ------------------------------------------------------------------ averaging


def test_average_single_value():
    table = PredictionTable(np.array([[1.0]]), keep_duplicates=True)
    assert MEAN_AGGREGATE([0], table, 0) == 1.0


def test_average_two_values():
    table = PredictionTable(np.array([[0.0, 1.0]]), keep_duplicates=True)
    assert MEAN_AGGREGATE([0, 1], table, 0) == 0.5


def test_average_matches_bruteforce_mean():
    rng = np.random.default_rng(0)
    table = PredictionTable(rng.random((3, 7)), keep_duplicates=True)
    subset = [0, 2, 3, 4, 5, 6]
    expected = sum(table.values[1, j] for j in subset) / len(subset)
    assert MEAN_AGGREGATE(subset, table, 1) == pytest.approx(expected)


def test_average_empty_set_rejected():
    table = PredictionTable(np.array([[1.0]]), keep_duplicates=True)
    with pytest.raises(ValueError):
        MEAN_AGGREGATE([], table, 0)


# ----------------------------------------------------------------------- grid


def test_regression_grid_m1_class8():
    grid = regression_grid(1.0, 8)
    assert len(grid) == 25  # ceil(12 * ln 8) = ceil(24.953...)
    assert grid.levels[0] == 1.0 and grid.t_max == 25.0


def test_regression_grid_scales_with_bound():
    grid = regression_grid(0.5, 8)
    assert grid.levels[0] == 0.5
    assert grid.levels[1] == 1.0
    assert grid.t_max == 12.5
    assert grid.gap == 0.5


def test_regression_grid_rejects_singleton_class():
    with pytest.raises(ValueError, match="degenerate"):
        regression_grid(1.0, 1)


# --------------------------------------------------------------- loss catalog


def test_builtin_loss_values():
    losses = builtin_losses()
    assert float(losses["squared"].evaluate(0.5, 0.5)) == 0.0
    assert float(losses["squared"].evaluate(0.0, 1.0)) == 1.0  # bound attained
    assert float(losses["absolute"].evaluate(0.25, 0.75)) == 0.5


def test_builtin_losses_clamp_predictions():
    losses = builtin_losses()
    assert float(losses["squared"].evaluate(1.5, 1.0)) == 0.0
    assert float(losses["absolute"].evaluate(-0.25, 0.0)) == 0.0


def test_scaled_loss_declares_its_bound():
    loss = scale_loss("squared", 0.5)
    assert loss.delta_bound == 0.5
    assert float(loss.evaluate(0.0, 1.0)) == 0.5


@pytest.mark.parametrize("name", ["squared", "absolute"])
def test_builtin_losses_monotone_in_distance(name):
    loss = builtin_losses()[name]
    rng = np.random.default_rng(1)
    y = rng.random(2000)
    near = rng.random(2000)
    far = y + np.sign(near - y + 1e-12) * np.minimum(
        np.abs(near - y) * (1.0 + rng.random(2000)), 1.0
    )
    far = np.clip(far, 0.0, 1.0)
    mask = np.abs(far - y) >= np.abs(near - y)
    assert np.all(
        loss.evaluate(far[mask], y[mask]) >= loss.evaluate(near[mask], y[mask]) - 1e-12
    )


def test_averaging_stability_for_catalog_losses():
    rng = np.random.default_rng(2)
    inst = make_regression_instance(10, 8, 0.1, rng)
    for loss in builtin_losses().values():
        cert = check_aggregation_stability(
            MEAN_AGGREGATE, loss, inst.table, inst.sample, trials=400
        )
        assert cert.lhs == 0.0


# ---------------------------------------------------------------- certificate


def test_regression_bound_constant_class_zero_loss():
    # responses sit on one constant column; the other is far enough that no
    # grid level ever admits it on 60 samples
    n = 60
    values = np.column_stack([np.full(n, 0.5), np.full(n, 0.9)])
    table = PredictionTable(values, keep_duplicates=True)
    sample = LabeledSample(np.full(n, 0.5))
    loss = builtin_losses()["squared"]
    grid = regression_grid(1.0, 2)
    output = run_mlsa(table, sample, loss, grid, MEAN_AGGREGATE)
    cert = verify_regression_bound(output, table, 1.0)
    assert cert.lhs == 0.0
    assert cert.passed


@pytest.mark.parametrize("name", ["squared", "absolute"])
def test_regression_bound_random_class(name):
    rng = np.random.default_rng(3)
    inst = make_regression_instance(100, 32, 0.2, rng)
    loss = builtin_losses()[name]
    grid = regression_grid(1.0, 32)
    output = run_mlsa(inst.table, inst.sample, loss, grid, MEAN_AGGREGATE)
    cert = verify_regression_bound(output, inst.table, 1.0)
    assert cert.slack >= -1e-9
    audit = grid_growth_audit(inst.table, inst.sample, loss, grid)
    assert audit.good_fraction >= 0.75


def test_regression_bound_two_member_class():
    rng = np.random.default_rng(4)
    inst = make_regression_instance(12, 2, 0.05, rng)
    loss = builtin_losses()["squared"]
    grid = regression_grid(1.0, 2)
    output = run_mlsa(inst.table, inst.sample, loss, grid, MEAN_AGGREGATE)
    cert = verify_regression_bound(output, inst.table, 1.0)
    assert cert.slack >= -1e-9


def test_regression_bound_grid_mismatch():
    rng = np.random.default_rng(5)
    inst = make_regression_instance(20, 8, 0.1, rng)
    loss = scale_loss("squared", 0.5)
    grid = regression_grid(0.5, 8)
    output = run_mlsa(inst.table, inst.sample, loss, grid, MEAN_AGGREGATE)
    with pytest.raises(GridMismatchError):
        verify_regression_bound(output, inst.table, 1.0)


def test_regression_bound_grid_length_mismatch():
    # a shorter grid used to reach np.allclose and fail with a broadcast error
    rng = np.random.default_rng(5)
    inst = make_regression_instance(20, 8, 0.1, rng)
    loss = scale_loss("squared", 0.5)
    grid = regression_grid(0.5, 8)
    output = run_mlsa(inst.table, inst.sample, loss, grid, MEAN_AGGREGATE)
    short = dataclasses.replace(output, grid=ToleranceGrid(grid.levels[:3], gap=grid.gap))
    with pytest.raises(GridMismatchError, match="regression grid"):
        verify_regression_bound(short, inst.table, 0.5)
