"""Density task: log-ratio bounds, smoothing, grids, certificates."""

import dataclasses
import math

import numpy as np
import pytest

from mlsa.audit import check_aggregation_stability, grid_growth_audit
from mlsa.classification import GridMismatchError
from mlsa.core import ToleranceGrid, level_set
from mlsa.density import (
    DensityClass,
    density_grid,
    load_density_class,
    log_loss_table,
    mlsa_for_density,
    smooth_class,
    smoothing_inflation,
    verify_density_bound,
    verify_smoothed_density,
)
from mlsa.generators import make_density_instance
from mlsa.regression import MEAN_AGGREGATE

TWO_BY_TWO = np.array([[0.9, 0.1], [0.1, 0.9]])


def _bruteforce_log_ratio_bound(probs):
    worst = 0.0
    for p in probs:
        for q in probs:
            for x in range(probs.shape[1]):
                if q[x] == 0 or p[x] == 0:
                    return math.inf
                worst = max(worst, abs(math.log(p[x] / q[x])))
    return worst


# ----------------------------------------------------------------- the class


def test_density_class_validates_rows():
    with pytest.raises(ValueError, match="sum to 1"):
        DensityClass(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError, match="nonnegative"):
        DensityClass(np.array([[1.5, -0.5]]))


@pytest.mark.parametrize(
    "probs",
    [[[np.nan, 1.0], [0.5, 0.5]], [[np.nan, 0.5, 0.5]], [[np.inf, 0.5]], [[0.5, -np.inf]]],
)
def test_density_class_rejects_non_finite_probabilities(probs):
    # a NaN row used to pass, then fail as "class has a zero entry" (two
    # densities) or give loo_error = nan (one density)
    with pytest.raises(ValueError, match="probabilities must be finite"):
        DensityClass(np.array(probs))


def test_load_density_class_rejects_nan(tmp_path):
    path = tmp_path / "dens.txt"
    path.write_text("nan 1\n0.5 0.5\n")
    with pytest.raises(ValueError, match="probabilities must be finite"):
        load_density_class(path)


def test_log_ratio_bound_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(5):
        inst = make_density_instance(4, 6, 5, rng)
        expected = _bruteforce_log_ratio_bound(inst.dclass.probs)
        assert inst.dclass.log_ratio_bound == pytest.approx(expected)


def test_zero_entry_gives_infinite_bound():
    dclass = DensityClass(np.array([[1.0, 0.0], [0.5, 0.5]]))
    assert math.isinf(dclass.log_ratio_bound)


def test_two_by_two_bound_by_exhaustive_max():
    dclass = DensityClass(TWO_BY_TWO)
    assert dclass.log_ratio_bound == pytest.approx(math.log(9.0))
    assert dclass.log_ratio_bound == pytest.approx(
        _bruteforce_log_ratio_bound(TWO_BY_TWO)
    )


# ------------------------------------------------------------- loss and table


def test_uniform_density_loss_is_log_space_size():
    dclass = DensityClass(np.vstack([np.full(4, 0.25), [0.4, 0.2, 0.2, 0.2]]))
    table, loss, sample = log_loss_table(dclass, [2, 0])
    assert float(loss.evaluate(table.values[0, 0], 0.0)) == pytest.approx(math.log(4))


def test_point_mass_rejected():
    dclass = DensityClass(np.array([[1.0, 0.0], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="smooth"):
        log_loss_table(dclass, [0])


def test_observation_outside_space_rejected():
    dclass = DensityClass(TWO_BY_TWO)
    with pytest.raises(ValueError, match="outside"):
        log_loss_table(dclass, [0, 2])


# ----------------------------------------------------------------------- grid


def test_density_grid_two_densities_unit_bound():
    grid = density_grid(1.0, 2)
    assert len(grid) == 9  # ceil(12 * ln 2) = ceil(8.317...)
    assert grid.t_max == 9.0


def test_density_grid_homogeneous_in_bound():
    base = density_grid(1.0, 5)
    scaled = density_grid(2.5, 5)
    assert np.allclose(scaled.levels, 2.5 * base.levels)
    assert scaled.gap == 2.5


def test_density_grid_degenerate_class():
    with pytest.raises(ValueError):
        density_grid(1.0, 1)


# ------------------------------------------------------------------ smoothing


def test_log_ratio_bound_is_derived_not_an_argument():
    # a given bound used to be overwritten by the derived one without a word
    with pytest.raises(TypeError, match="log_ratio_bound"):
        DensityClass(np.full((2, 2), 0.5), log_ratio_bound=7.0)
    assert DensityClass(np.full((2, 2), 0.5)).log_ratio_bound == 0.0


def test_smooth_class_mixes_with_class_average():
    smoothed = smooth_class(DensityClass(TWO_BY_TWO), 0.1)
    # |X| >= |P| so the reference is the average row (0.5, 0.5)
    assert smoothed.probs[0] == pytest.approx([0.86, 0.14])
    assert smoothed.probs.sum(axis=1) == pytest.approx([1.0, 1.0])


def test_smooth_class_bound_within_formula():
    smoothed = smooth_class(DensityClass(TWO_BY_TWO), 0.1)
    cap = math.log(1 / 0.1) + math.log(2)
    assert smoothed.log_ratio_bound <= cap + 1e-12
    assert smoothed.log_ratio_bound == pytest.approx(
        _bruteforce_log_ratio_bound(smoothed.probs)
    )


def test_smooth_class_uses_uniform_when_space_smaller():
    probs = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
    smoothed = smooth_class(DensityClass(probs), 0.2)
    # |X| = 2 < |P| = 3: uniform reference
    assert smoothed.probs[0] == pytest.approx([0.9 * 0.8 + 0.1, 0.1 * 0.8 + 0.1])


def test_smooth_class_epsilon_range():
    dclass = DensityClass(TWO_BY_TWO)
    for bad in [0.0, 0.5, -0.1, 0.7]:
        with pytest.raises(ValueError):
            smooth_class(dclass, bad)


def test_smoothing_repairs_infinite_bound():
    dclass = DensityClass(np.array([[1.0, 0.0], [0.0, 1.0]]))
    smoothed = smooth_class(dclass, 0.25)
    assert math.isfinite(smoothed.log_ratio_bound)


# --------------------------------------------------------------- certificates


def test_singleton_class_bypass():
    dclass = DensityClass(np.array([[0.25, 0.25, 0.25, 0.25]]))
    obs = [0, 1, 3]
    output = mlsa_for_density(dclass, obs)
    assert output.loo_error == pytest.approx(math.log(4))
    cert = verify_density_bound(output, dclass, obs)
    assert output.erm_loss == cert.components["erm_loss"]
    assert cert.lhs == pytest.approx(cert.components["erm_loss"] / 3)
    assert cert.passed


def test_density_bound_full_pipeline():
    rng = np.random.default_rng(1)
    inst = make_density_instance(4, 8, 60, rng)
    output = mlsa_for_density(inst.dclass, inst.observations)
    cert = verify_density_bound(output, inst.dclass, inst.observations)
    assert cert.slack >= -1e-9
    table, loss, sample = log_loss_table(inst.dclass, inst.observations)
    audit = grid_growth_audit(table, sample, loss, output.grid)
    assert audit.good_fraction >= 0.75


def test_density_bound_rejects_infinite_bound():
    dclass = DensityClass(np.array([[1.0, 0.0], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="smooth"):
        verify_density_bound(None, dclass, [0])


def test_density_bound_grid_mismatch():
    rng = np.random.default_rng(2)
    inst = make_density_instance(4, 8, 30, rng)
    output = mlsa_for_density(inst.dclass, inst.observations)
    other = make_density_instance(4, 8, 30, np.random.default_rng(3))
    with pytest.raises(GridMismatchError):
        verify_density_bound(output, other.dclass, other.observations)


def test_density_bound_grid_length_mismatch():
    inst = make_density_instance(4, 8, 30, np.random.default_rng(2))
    output = mlsa_for_density(inst.dclass, inst.observations)
    grid = output.grid
    short = dataclasses.replace(output, grid=ToleranceGrid(grid.levels[:3], gap=grid.gap))
    with pytest.raises(GridMismatchError, match="density grid"):
        verify_density_bound(short, inst.dclass, inst.observations)


def test_smoothed_pipeline_certificates():
    rng = np.random.default_rng(4)
    inst = make_density_instance(4, 8, 30, rng, floor=0.0)
    eps = 1.0 / 30
    smoothed = smooth_class(inst.dclass, eps)
    output = mlsa_for_density(smoothed, inst.observations)
    cert = verify_smoothed_density(output, inst.dclass, inst.observations, eps)
    assert cert.slack >= -1e-9
    inflation = smoothing_inflation(inst.dclass, smoothed, inst.observations, eps)
    assert inflation.passed


def test_smoothed_certificate_refuses_a_run_off_the_smoothed_grid():
    # a smoothed run cut to its first 3 levels used to pass the smoothed
    # certificate, which verify_density_bound refuses on the same run
    inst = make_density_instance(4, 8, 30, np.random.default_rng(4), floor=0.0)
    eps = 1.0 / 30
    smoothed = smooth_class(inst.dclass, eps)
    output = mlsa_for_density(smoothed, inst.observations)
    grid = output.grid
    short = dataclasses.replace(output, grid=ToleranceGrid(grid.levels[:3], gap=grid.gap))
    with pytest.raises(GridMismatchError, match="density grid for this class"):
        verify_density_bound(short, smoothed, inst.observations)
    with pytest.raises(GridMismatchError, match="density grid for the smoothed class"):
        verify_smoothed_density(short, inst.dclass, inst.observations, eps)
    # a one-density class has no grid to check: its run bypasses aggregation
    single = DensityClass(np.full((1, 4), 0.25))
    run = mlsa_for_density(smooth_class(single, 1 / 3), [0, 1, 3])
    assert verify_smoothed_density(run, single, [0, 1, 3], 1 / 3).passed


def test_smoothed_certificate_requires_eps_one_over_n():
    rng = np.random.default_rng(5)
    inst = make_density_instance(2, 4, 20, rng)
    smoothed = smooth_class(inst.dclass, 0.1)
    output = mlsa_for_density(smoothed, inst.observations)
    with pytest.raises(ValueError, match="1/n"):
        verify_smoothed_density(output, inst.dclass, inst.observations, 0.1)


# ---------------------------------------------------- sandwich and averaging


def test_density_sandwich_bruteforce_small_instance():
    rng = np.random.default_rng(6)
    inst = make_density_instance(5, 4, 8, rng)
    table, loss, sample = log_loss_table(inst.dclass, inst.observations)
    M = inst.dclass.log_ratio_bound
    for t in [0.0, 0.5 * M, M, 2.7 * M]:
        upper = set(level_set(table, sample, loss, t + M).tolist())
        for i in range(8):
            inner = set(level_set(table, sample, loss, t, exclude=i).tolist())
            assert inner <= upper
            if t - M >= 0:
                lower = set(level_set(table, sample, loss, t - M).tolist())
                assert lower <= inner


def test_averaging_stability_for_log_loss():
    rng = np.random.default_rng(7)
    inst = make_density_instance(6, 5, 10, rng)
    table, loss, sample = log_loss_table(inst.dclass, inst.observations)
    cert = check_aggregation_stability(MEAN_AGGREGATE, loss, table, sample, trials=500)
    assert cert.lhs == 0.0


def test_load_density_class_roundtrip(tmp_path):
    path = tmp_path / "dens.txt"
    np.savetxt(path, TWO_BY_TWO, fmt="%.17g")
    loaded = load_density_class(path)
    assert np.allclose(loaded.probs, TWO_BY_TWO)
