"""Acceptance suite: one test per criterion, at the stated tolerances and budgets.

Each test prints a single PASS line (visible with ``pytest -s``); the test
name itself doubles as the criterion label under ``pytest -v``.  Every
inequality is asserted at its stated tolerance, and every criterion asserts
its wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from mlsa.audit import check_aggregation_stability, grid_growth_audit, simulate_generalization
from mlsa.classification import (
    MAJORITY_VOTE,
    classification_grid,
    descriptor_vc_dimension,
    verify_classification_bound,
    zero_one_loss,
)
from mlsa.cli import main
from mlsa.core import LabeledSample, PredictionTable, run_mlsa
from mlsa.density import (
    density_grid,
    log_loss_table,
    mlsa_for_density,
    smooth_class,
    smoothing_inflation,
    verify_density_bound,
    verify_smoothed_density,
)
from mlsa.generators import (
    make_classification_instance,
    make_density_instance,
    make_linear_instance,
    make_logistic_problem,
    make_regression_instance,
    threshold_task,
)
from mlsa.linear import fit_transductive_vaw, vaw_certificate, verify_pinv_identity
from mlsa.logistic import (
    McConfig,
    build_geometry,
    crn_sandwich_report,
    run_mlsa_logistic,
    verify_logistic_bound,
    verify_ellipsoid_containment,
    verify_volume_lower_bound,
)
from mlsa.regression import MEAN_AGGREGATE, builtin_losses, regression_grid, verify_regression_bound

EXACT = 1e-9


def _finish(number, name, start, budget_s, detail):
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:02d}] {name}: PASS ({detail}; {elapsed:.1f}s < {budget_s}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_01_sandwich_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    levels_checked = 0
    for instance in range(100):
        n = int(rng.integers(5, 51))
        m = int(rng.integers(2, 201))
        # classification family: random finite 0/1 class
        table = PredictionTable(
            rng.integers(0, 2, size=(n, m)).astype(float), keep_duplicates=True
        )
        sample = LabeledSample(rng.integers(0, 2, size=n).astype(float))
        audit = grid_growth_audit(table, sample, zero_one_loss(), classification_grid(1, n))
        assert all(audit.sandwich_ok)
        levels_checked += len(audit.levels) * n
        # regression family: random finite real-valued class
        reg = make_regression_instance(n, max(m, 2), 0.2, rng)
        loss = builtin_losses()["squared" if instance % 2 == 0 else "absolute"]
        audit = grid_growth_audit(
            reg.table, reg.sample, loss, regression_grid(1.0, reg.table.n_hypotheses)
        )
        assert all(audit.sandwich_ok)
        levels_checked += len(audit.levels) * n
        # density family: random finite density class under log loss
        den = make_density_instance(int(rng.integers(2, 17)), int(rng.integers(2, 33)), n, rng)
        table, loss, sample = log_loss_table(den.dclass, den.observations)
        audit = grid_growth_audit(
            table, sample, loss, density_grid(den.dclass.log_ratio_bound, den.dclass.n_densities)
        )
        assert all(audit.sandwich_ok)
        levels_checked += len(audit.levels) * n
    _finish(1, "level-set sandwich suite", start, 30,
            f"300 instances, {levels_checked} (level, index) cells, 0 violations")


def test_criterion_02_aggregation_assumption_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    checks = []
    cls = make_classification_instance("thresholds-1d", 40, 0.3, rng)
    checks.append(
        ("majority/0-1", check_aggregation_stability(
            MAJORITY_VOTE, zero_one_loss(), cls.table, cls.sample, trials=1000, seed=1))
    )
    reg = make_regression_instance(40, 24, 0.2, rng)
    for name in ("squared", "absolute"):
        checks.append(
            (f"average/{name}", check_aggregation_stability(
                MEAN_AGGREGATE, builtin_losses()[name], reg.table, reg.sample,
                trials=1000, seed=2))
        )
    den = make_density_instance(12, 8, 40, rng)
    table, loss, sample = log_loss_table(den.dclass, den.observations)
    checks.append(
        ("average/log", check_aggregation_stability(
            MEAN_AGGREGATE, loss, table, sample, trials=1000, seed=3))
    )
    for label, cert in checks:
        assert cert.lhs == 0.0, f"{label}: {cert.components['first_violation']}"
    _finish(2, "aggregation stability suite", start, 10,
            f"{len(checks)}x1000 trials, 0 violations")


def test_criterion_03_classification_oracle_bound():
    start = time.perf_counter()
    loss = zero_one_loss()
    runs = 0
    min_slack = math.inf
    min_rho = 1.0
    for descriptor in ("thresholds-1d", "intervals-1d"):
        d = descriptor_vc_dimension(descriptor)
        for n in (50, 100, 200):
            grid = classification_grid(d, n)
            for noise in (0.0, 0.1, 0.3):
                for seed in range(20):
                    rng = np.random.default_rng(3000 + 7 * seed + n + int(noise * 10))
                    inst = make_classification_instance(descriptor, n, noise, rng)
                    output = run_mlsa(inst.table, inst.sample, loss, grid, MAJORITY_VOTE)
                    cert = verify_classification_bound(output, inst.table, inst.sample, d, n)
                    assert cert.slack >= -EXACT
                    audit = grid_growth_audit(inst.table, inst.sample, loss, grid)
                    assert audit.good_fraction >= 0.75
                    if noise == 0.0:
                        assert cert.components["erm_loss"] == 0.0
                        assert cert.lhs <= 200.0 * d * math.log(n) / n + EXACT
                    min_slack = min(min_slack, cert.slack)
                    min_rho = min(min_rho, audit.good_fraction)
                    runs += 1
    _finish(3, "classification oracle bound", start, 120,
            f"{runs} runs, min slack {min_slack:.3f}, min rho {min_rho:.3f}")


def test_criterion_04_regression_oracle_bound():
    start = time.perf_counter()
    runs = 0
    min_slack = math.inf
    for class_size in (8, 32):
        grid = regression_grid(1.0, class_size)
        for name in ("squared", "absolute"):
            loss = builtin_losses()[name]
            for n in (50, 100):
                for seed in range(20):
                    rng = np.random.default_rng(4000 + seed + n + class_size)
                    inst = make_regression_instance(n, class_size, 0.2, rng)
                    output = run_mlsa(inst.table, inst.sample, loss, grid, MEAN_AGGREGATE)
                    cert = verify_regression_bound(output, inst.table, 1.0)
                    assert cert.slack >= -EXACT
                    min_slack = min(min_slack, cert.slack)
                    runs += 1
    _finish(4, "bounded-convex regression oracle bound", start, 60,
            f"{runs} runs, min slack {min_slack:.3f}")


def test_criterion_05_density_oracle_and_smoothing():
    start = time.perf_counter()
    runs = 0
    min_slack = math.inf
    for class_size in (2, 4, 8):
        for space_size in (2, 8, 32):
            for n in (30, 60):
                eps = 1.0 / n
                for seed in range(20):
                    rng = np.random.default_rng(5000 + seed + n + class_size + space_size)
                    inst = make_density_instance(class_size, space_size, n, rng)
                    assert math.isfinite(inst.dclass.log_ratio_bound)
                    output = mlsa_for_density(inst.dclass, inst.observations)
                    cert = verify_density_bound(output, inst.dclass, inst.observations)
                    assert cert.slack >= -EXACT
                    smoothed = smooth_class(inst.dclass, eps)
                    smoothed_output = mlsa_for_density(smoothed, inst.observations)
                    smoothed_cert = verify_smoothed_density(
                        smoothed_output, inst.dclass, inst.observations, eps
                    )
                    assert smoothed_cert.slack >= -EXACT
                    inflation = smoothing_inflation(
                        inst.dclass, smoothed, inst.observations, eps
                    )
                    assert inflation.slack >= -EXACT
                    min_slack = min(min_slack, cert.slack, smoothed_cert.slack, inflation.slack)
                    runs += 1
    _finish(5, "density oracle bound and smoothing", start, 60,
            f"{runs} instances x 3 certificates, min slack {min_slack:.3f}")


def test_criterion_06_logistic_geometry(containment_rows):
    start = time.perf_counter()
    checked = 0
    for d in (1, 2):
        for seed in range(5):
            rng = np.random.default_rng(600 + seed)
            problem = make_logistic_problem(50, d, 1.0, 1.0, rng)
            geometry = build_geometry(problem)
            for calls in containment_rows.values():
                calls.clear()
            contained, *halfspace = verify_ellipsoid_containment(
                geometry, problem, McConfig(samples_per_level=10_000, seed=6100 + seed)
            )
            assert contained.lhs == 0.0
            # the interior case keeps every draw and makes no half-space certificate
            assert len(halfspace) == (not contained.components["interior"])
            kept = [10_000]
            for cert in halfspace:
                assert abs(cert.rhs - 0.5) <= 3 * cert.components["stderr"]
                kept = [round(cert.rhs * 10_000)]
            assert containment_rows == {"_loss_totals": kept, "_in_HA": kept}
            volume = verify_volume_lower_bound(
                geometry, problem, McConfig(samples_per_level=200_000, seed=6200 + seed)
            )
            estimate, stderr = volume.components["estimate"], volume.components["stderr"]
            assert estimate + 3 * stderr >= volume.lhs
            checked += 1
    _finish(6, "logistic ellipsoid containment and volume floor", start, 300,
            f"{checked} geometries, 10^4 containment + 2x10^5 volume samples each")


def test_criterion_07_logistic_end_to_end():
    start = time.perf_counter()
    min_slack = math.inf
    for seed in range(3):
        rng = np.random.default_rng(700 + seed)
        problem = make_logistic_problem(50, 2, 1.0, 1.0, rng, noise=0)
        run = run_mlsa_logistic(
            problem, McConfig(samples_per_level=200_000, seed=7100 + seed)
        )
        cert = verify_logistic_bound(run.output, run.geometry, problem, mc_slack=0.05)
        assert cert.slack >= -EXACT
        sandwich = crn_sandwich_report(run)
        assert sandwich.violations == 0
        min_slack = min(min_slack, cert.slack)
    _finish(7, "logistic oracle bound with CRN nestedness", start, 1200,
            f"3 seeds, 2x10^5 samples per cell, min slack {min_slack:.3f}")


def test_criterion_08_linear_shrinkage_loo_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    for instance in range(100):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 11))
        X, y = make_linear_instance(n, d, rng, rank_deficient=instance % 3 == 0)
        result = fit_transductive_vaw(X, y)
        assert vaw_certificate(result).slack >= -EXACT
        assert np.all(result.leverages >= -1e-12)
        assert np.all(result.leverages <= 1.0 + 1e-12)
        assert abs(float(result.leverages.sum()) - result.rank) <= 1e-8
        assert verify_pinv_identity(X).passed
    _finish(8, "linear shrinkage-LOO suite", start, 10,
            "100 instances incl. rank-deficient, all identities hold")


def test_criterion_09_generalization_simulation():
    start = time.perf_counter()
    cert = simulate_generalization(threshold_task(noise=0.1), n=30, repetitions=2000, seed=909)
    bound = 8.0 * cert.components["oracle_risk"] + cert.components["complexity"] / 31.0
    assert cert.lhs <= bound + 3 * cert.components["stderr"]
    _finish(9, "held-out generalization simulation", start, 180,
            f"mean loss {cert.lhs:.4f} vs bound {bound:.3f} + 3se")


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(
        "task = classification, regression, density, vaw\n"
        "n = 30\nclass_size = 6\nspace_size = 8\nnoise = 0.1\nseed = 1010\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out_b)]) == 0
    csv_a = (out_a / "results.csv").read_bytes()
    assert csv_a == (out_b / "results.csv").read_bytes()
    out_l1, out_l2 = tmp_path / "l1", tmp_path / "l2"
    logistic_args = ["run", "--task", "logistic", "--seed", "1011",
                     "--set", "n=12", "d=2", "mc_samples=5000"]
    assert main(logistic_args + ["--out", str(out_l1)]) == 0
    assert main(logistic_args + ["--out", str(out_l2)]) == 0
    assert (out_l1 / "results.csv").read_bytes() == (out_l2 / "results.csv").read_bytes()
    _finish(10, "byte-identical reruns", start, 120,
            "sweep (4 tasks) and logistic run repeated, CSVs identical")
