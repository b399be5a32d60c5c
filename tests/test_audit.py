"""Audit engine: aggregation checks, growth audits, bound certificates."""

import math

import numpy as np
import pytest

from mlsa.audit import (
    BoundCertificate,
    GridMismatchError,
    GrowthAudit,
    check_aggregation_stability,
    grid_growth_audit,
    simulate_generalization,
    verify_grid_majority_bound,
    verify_single_level,
)
from mlsa.classification import MAJORITY_VOTE, classification_grid, zero_one_loss
from mlsa.core import (
    LabeledSample,
    LossModel,
    PredictionTable,
    ToleranceGrid,
    empirical_loss,
    level_set,
    run_mlsa,
)
from mlsa.generators import make_classification_instance, threshold_task
from mlsa.regression import MEAN_AGGREGATE, builtin_losses


# ------------------------------------------------------ aggregation stability


def test_majority_vote_satisfies_stability_inequality():
    rng = np.random.default_rng(1)
    table = PredictionTable(rng.integers(0, 2, size=(8, 9)).astype(float), keep_duplicates=True)
    sample = LabeledSample(rng.integers(0, 2, size=8).astype(float))
    cert = check_aggregation_stability(MAJORITY_VOTE, zero_one_loss(), table, sample, trials=500)
    assert cert.passed and cert.lhs == 0.0
    assert cert.name == "aggregation-stability" and cert.rhs == 0.0
    assert cert.components == {"trials": 500, "stability": 2.0, "first_violation": None}


def test_averaging_satisfies_stability_for_squared():
    rng = np.random.default_rng(2)
    table = PredictionTable(rng.random((8, 9)), keep_duplicates=True)
    sample = LabeledSample(rng.random(8))
    cert = check_aggregation_stability(
        MEAN_AGGREGATE, builtin_losses()["squared"], table, sample, trials=500
    )
    assert cert.passed


def test_averaging_with_zero_one_loss_is_caught():
    # averaging {0, 1} gives 0.5 whose 0-1 loss is 1, above the subset mean 0.5
    table = PredictionTable(np.array([[0.0, 1.0]]), keep_duplicates=True)
    sample = LabeledSample([0.0])
    cert = check_aggregation_stability(
        MEAN_AGGREGATE, zero_one_loss(), table, sample, trials=200, seed=7
    )
    assert not cert.passed
    assert cert.reason == f"slack = {-cert.lhs!r} is below -1e-09"
    assert cert.components["first_violation"] is not None
    assert cert.components["first_violation"]["subset"] == [0, 1]


def test_stability_check_fails_on_a_nan_loss_and_refuses_a_short_sample():
    # the check evaluates each trial's row and subset alone, with no loss
    # matrix to refuse a non-finite loss: a trial that meets one is a violation
    table = PredictionTable(np.array([[0.0, 1.0], [1.0, 0.0]]), keep_duplicates=True)
    sample = LabeledSample([0.0, 0.0])
    loss = LossModel(lambda p, y: np.where(p > 0.75, np.nan, (p - y) ** 2), delta_bound=1.0)
    cert = check_aggregation_stability(MEAN_AGGREGATE, loss, table, sample, trials=50)
    assert not cert.passed and cert.lhs > 0
    assert math.isnan(cert.components["first_violation"]["rhs"])
    with pytest.raises(ValueError, match="sample has 1 responses but table has 2 rows"):
        check_aggregation_stability(MEAN_AGGREGATE, loss, table, LabeledSample([0.0]))


# ------------------------------------------------------------- growth audit


def test_growth_audit_singleton_class_all_good():
    table = PredictionTable(np.array([[1.0], [0.0], [1.0]]), keep_duplicates=True)
    sample = LabeledSample([1.0, 1.0, 0.0])
    grid = classification_grid(1, 3)
    audit = grid_growth_audit(table, sample, zero_one_loss(), grid)
    assert audit.good_fraction == 1.0
    assert audit.ratio == (1.0,) * len(grid)


def test_growth_audit_thresholds_meets_nominal_fraction():
    rng = np.random.default_rng(3)
    inst = make_classification_instance("thresholds-1d", 20, 0.2, rng)
    grid = classification_grid(1, 20)
    audit = grid_growth_audit(inst.table, inst.sample, zero_one_loss(), grid)
    assert audit.good_fraction >= 0.75


def test_growth_audit_matches_bruteforce_enumeration():
    rng = np.random.default_rng(4)
    values = rng.integers(0, 2, size=(6, 4)).astype(float)
    table = PredictionTable(values, keep_duplicates=True)
    sample = LabeledSample(rng.integers(0, 2, size=6).astype(float))
    loss = zero_one_loss()
    grid = ToleranceGrid(levels=np.arange(1.0, 6.0), gap=1.0)
    audit = grid_growth_audit(table, sample, loss, grid)
    m = table.n_hypotheses
    totals = [empirical_loss(table, sample, loss, j) for j in range(m)]
    best = min(totals)
    assert audit.levels == tuple(grid.levels.tolist())
    for k, t in enumerate(audit.levels):
        minus = {j for j in range(m) if totals[j] <= best + max(t - 1.0, 0.0)}
        plus = {j for j in range(m) if totals[j] <= best + t + 1.0}
        assert audit.size_minus[k] == len(minus)
        assert audit.size_plus[k] == len(plus)
        assert audit.ratio[k] == pytest.approx(len(plus) / len(minus))
        sandwich = True
        for i in range(6):
            inner = set(level_set(table, sample, loss, t, exclude=i).tolist())
            if t - 1.0 >= 0:
                lower = {
                    j for j in range(m) if totals[j] <= best + t - 1.0
                }
                sandwich &= lower <= inner
            sandwich &= inner <= plus
        assert audit.sandwich_ok[k] == sandwich
        assert audit.good[k] == (sandwich and audit.ratio[k] <= 2.0 + 1e-9)


def test_growth_audit_invariant_under_column_permutation():
    rng = np.random.default_rng(5)
    values = rng.integers(0, 2, size=(7, 6)).astype(float)
    sample = LabeledSample(rng.integers(0, 2, size=7).astype(float))
    grid = ToleranceGrid(levels=np.arange(1.0, 5.0), gap=1.0)
    loss = zero_one_loss()
    base = grid_growth_audit(PredictionTable(values, keep_duplicates=True), sample, loss, grid)
    perm = rng.permutation(values.shape[1])
    shuffled = grid_growth_audit(
        PredictionTable(values[:, perm], keep_duplicates=True), sample, loss, grid
    )
    assert base == shuffled


def test_growth_audit_rejects_nan_growth_constant():
    # nan < 1 is False: a NaN constant used to mark every level bad
    table = PredictionTable(np.array([[1.0], [0.0], [1.0]]), keep_duplicates=True)
    sample = LabeledSample([1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="at least 1, got nan"):
        grid_growth_audit(table, sample, zero_one_loss(), classification_grid(1, 3), c_g=math.nan)


# ------------------------------------------------------- single-level bound


def test_single_level_singleton_class():
    table = PredictionTable(np.array([[1.0], [0.0], [1.0], [0.0]]), keep_duplicates=True)
    sample = LabeledSample([1.0, 1.0, 1.0, 0.0])
    cert = verify_single_level(table, sample, zero_one_loss(), MAJORITY_VOTE, t=3.0)
    erm = cert.components["erm_loss"]
    assert cert.lhs == pytest.approx(erm / 4.0)
    assert cert.passed


def test_single_level_builds_one_loss_matrix(loss_matrix_calls):
    # the growth audit and the run share one evaluation; the ERM total is the run's
    inst = make_classification_instance("thresholds-1d", 15, 0.2, np.random.default_rng(6))
    loss = zero_one_loss()
    audit = grid_growth_audit(inst.table, inst.sample, loss, classification_grid(1, 15))
    t = audit.levels[audit.good.index(True)]
    loss_matrix_calls.clear()
    cert = verify_single_level(inst.table, inst.sample, loss, MAJORITY_VOTE, t=t)
    assert len(loss_matrix_calls) == 1
    assert cert.components["erm_loss"] == min(
        empirical_loss(inst.table, inst.sample, loss, j) for j in range(inst.table.n_hypotheses)
    )


def test_single_level_realizable_thresholds_all_good_levels():
    rng = np.random.default_rng(6)
    inst = make_classification_instance("thresholds-1d", 15, 0.0, rng)
    loss = zero_one_loss()
    grid = classification_grid(1, 15)
    audit = grid_growth_audit(inst.table, inst.sample, loss, grid)
    for t, good in zip(audit.levels[:10], audit.good):
        if not good:
            continue
        cert = verify_single_level(inst.table, inst.sample, loss, MAJORITY_VOTE, t=t)
        assert cert.slack >= -1e-9


def test_single_level_hand_computed_instance():
    values = [
        [1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0],
    ]
    labels = [1.0, 0.0, 0.0, 1.0]
    table = PredictionTable(np.array(values), keep_duplicates=True)
    sample = LabeledSample(np.array(labels))
    loss = zero_one_loss()
    t = 2.0
    predictions = []
    for i in range(4):
        excl = [
            sum(1 for r in range(4) if r != i and values[r][j] != labels[r])
            for j in range(3)
        ]
        best = min(excl)
        selected = [j for j in range(3) if excl[j] <= best + t]
        vote = sum(2 * values[i][j] - 1 for j in selected)
        predictions.append(1.0 if vote >= 0 else 0.0)
    expected_lhs = sum(
        1.0 for i in range(4) if predictions[i] != labels[i]
    ) / 4.0
    cert = verify_single_level(table, sample, loss, MAJORITY_VOTE, t=t)
    assert cert.lhs == pytest.approx(expected_lhs)


def test_single_level_rejects_bad_level():
    # two hypotheses one loss apart: at t=1 the ratio jumps from 1 to 2 only if
    # the level straddles the gap; craft a failing ratio with c_g barely above 1
    values = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    table = PredictionTable(values, keep_duplicates=True)
    sample = LabeledSample([1.0, 1.0, 1.0])
    cert = verify_single_level(table, sample, zero_one_loss(), MAJORITY_VOTE, t=2.0, c_g=1.0)
    assert not cert.passed
    assert cert.unmet == cert.reason == (
        "level t=2.0 fails the growth audit (ratio=2, sandwich_ok=True)"
    )


# ------------------------------------------------------- grid-majority bound


def _fake_audit(output, good_fraction, c_g=2.0):
    """An audit on the output's grid, whose every level is good but whose
    good fraction is the given one."""
    levels = tuple(output.grid.levels.tolist())
    ones, good = (1,) * len(levels), (True,) * len(levels)
    return GrowthAudit(levels, ones, ones, (1.0,) * len(levels), good, good,
                       good_fraction=good_fraction, c_g=c_g, delta=output.grid.gap)


def test_grid_majority_multiplier_at_nominal_parameters():
    rng = np.random.default_rng(7)
    inst = make_classification_instance("thresholds-1d", 12, 0.1, rng)
    loss = zero_one_loss()
    grid = classification_grid(1, 12)
    output = run_mlsa(inst.table, inst.sample, loss, grid, MAJORITY_VOTE)
    cert = verify_grid_majority_bound(output, _fake_audit(output, 0.75), erm=3.0)
    # 2 * c_g / ((2 rho - 1) n) with rho=3/4, c_g=2 is 8/n
    assert cert.components["multiplier"] == pytest.approx(8.0 / 12.0)
    assert cert.rhs == pytest.approx(8.0 / 12.0 * (3.0 + grid.t_max + 1.0))
    # the nominal fraction is 3/4, so at a measured 3/4 both bounds agree
    assert cert.components["rho_nominal"] == 0.75
    assert cert.components["rhs_nominal"] == cert.rhs


def test_grid_majority_single_hypothesis():
    table = PredictionTable(np.array([[1.0], [0.0], [1.0]]), keep_duplicates=True)
    sample = LabeledSample([1.0, 1.0, 0.0])
    loss = zero_one_loss()
    grid = classification_grid(1, 3)
    output = run_mlsa(table, sample, loss, grid, MAJORITY_VOTE)
    audit = grid_growth_audit(table, sample, loss, grid)
    erm = empirical_loss(table, sample, loss, 0)
    cert = verify_grid_majority_bound(output, audit, erm)
    assert cert.lhs == pytest.approx(erm / 3.0)
    assert cert.passed
    assert cert.lhs == output.loo_error  # cross-module consistency


def test_grid_majority_failure_detected():
    rng = np.random.default_rng(8)
    inst = make_classification_instance("thresholds-1d", 10, 0.0, rng)
    grid = classification_grid(1, 10)
    output = run_mlsa(inst.table, inst.sample, zero_one_loss(), grid, MAJORITY_VOTE)
    for rho in (0.5, 0.25, 0.0):
        cert = verify_grid_majority_bound(output, _fake_audit(output, rho), erm=0.0)
        assert not cert.passed
        assert cert.reason == f"grid-majority failure: measured good fraction {rho:.4f} <= 1/2"
        assert math.isnan(cert.rhs) and cert.components["rho_hat"] == rho
    # just above 1/2 the bound applies again
    assert verify_grid_majority_bound(output, _fake_audit(output, 0.51), erm=0.0).reason is None


def test_grid_majority_refuses_an_audit_of_another_grid():
    # an audit of the first 5 of the run's 89 levels used to be certified
    # against the run, with good fraction 0.40 in place of 0.97 and rhs nan
    inst = make_classification_instance("thresholds-1d", 40, 0.1, np.random.default_rng(7))
    loss = zero_one_loss()
    grid = classification_grid(1, 40)
    output = run_mlsa(inst.table, inst.sample, loss, grid, MAJORITY_VOTE)
    audit = grid_growth_audit(inst.table, inst.sample, loss, grid)
    assert len(grid) == 89 and verify_grid_majority_bound(output, audit, output.erm_loss).passed
    others = [ToleranceGrid(grid.levels[:5], gap=grid.gap), ToleranceGrid(grid.levels, gap=0.5)]
    for other in others:
        short = grid_growth_audit(inst.table, inst.sample, loss, other)
        with pytest.raises(GridMismatchError, match="growth audit was not taken on the output's"):
            verify_grid_majority_bound(output, short, output.erm_loss)


@pytest.mark.parametrize(
    "lhs,rhs,why",
    [
        (0.5, math.inf, "rhs = inf is not finite"),
        (-math.inf, 1.0, "lhs = -inf is not finite"),
        (math.nan, 1.0, "lhs = nan is not finite"),
        (0.5, math.nan, "rhs = nan is not finite"),
    ],
)
def test_certificate_with_non_finite_side_fails_and_says_why(lhs, rhs, why):
    cert = BoundCertificate(name="c", lhs=lhs, rhs=rhs)
    assert not cert.passed
    assert cert.reason == why


def test_certificate_reason_names_the_slack_shortfall():
    assert BoundCertificate(name="c", lhs=0.5, rhs=1.0).reason is None
    assert BoundCertificate(name="c", lhs=1.0, rhs=1.0 - 1e-12).passed  # within tolerance
    cert = BoundCertificate(name="c", lhs=1.0, rhs=0.5)
    assert not cert.passed and cert.reason == "slack = -0.5 is below -1e-09"


def test_grid_majority_nominal_bound_holds_for_averaging_tasks():
    # with averaging (stability 1) the full chain is airtight, so even the
    # nominal-fraction bound must hold on every instance
    from mlsa.generators import make_regression_instance
    from mlsa.regression import MEAN_AGGREGATE, builtin_losses, regression_grid

    loss = builtin_losses()["squared"]
    for seed in range(50):
        rng = np.random.default_rng(9000 + seed)
        inst = make_regression_instance(int(rng.integers(5, 40)), 16, 0.3, rng)
        grid = regression_grid(1.0, 16)
        output = run_mlsa(inst.table, inst.sample, loss, grid, MEAN_AGGREGATE)
        audit = grid_growth_audit(inst.table, inst.sample, loss, grid)
        erm = float(
            min(
                empirical_loss(inst.table, inst.sample, loss, j)
                for j in range(inst.table.n_hypotheses)
            )
        )
        cert = verify_grid_majority_bound(output, audit, erm)
        assert audit.good_fraction >= 0.75
        assert cert.passed
        assert output.loo_error <= cert.components["rhs_nominal"] + 1e-9


def test_grid_majority_no_violations_over_random_instances():
    violations = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 25))
        inst = make_classification_instance("thresholds-1d", n, float(rng.random() * 0.4), rng)
        loss = zero_one_loss()
        grid = classification_grid(1, n)
        output = run_mlsa(inst.table, inst.sample, loss, grid, MAJORITY_VOTE)
        audit = grid_growth_audit(inst.table, inst.sample, loss, grid)
        erm = float(
            min(
                empirical_loss(inst.table, inst.sample, loss, j)
                for j in range(inst.table.n_hypotheses)
            )
        )
        cert = verify_grid_majority_bound(output, audit, erm)
        if not cert.passed:
            violations += 1
    assert violations == 0


# ---------------------------------------------------- generalization check


def test_generalization_realizable_within_complexity_budget():
    task = threshold_task(noise=0.0)
    cert = simulate_generalization(task, n=12, repetitions=300, seed=9)
    stderr = cert.components["stderr"]
    assert cert.name == "generalization-bound"
    assert cert.components["oracle_risk"] == 0.0
    assert cert.lhs <= cert.components["complexity"] / 13.0 + 2 * stderr
    assert cert.tolerance == 3 * stderr
    assert cert.passed


def test_generalization_symmetric_noise_is_half():
    task = threshold_task(noise=0.5)
    cert = simulate_generalization(task, n=10, repetitions=400, seed=10)
    assert abs(cert.lhs - 0.5) <= 3 * cert.components["stderr"]


def test_generalization_smoke_n1():
    task = threshold_task(noise=0.1)
    cert = simulate_generalization(task, n=1, repetitions=5, seed=11)
    assert math.isfinite(cert.lhs)
    assert math.isfinite(cert.rhs)
