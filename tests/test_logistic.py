"""Logistic task: constrained ERM, ellipsoid geometry, MC level sets, bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlsa.logistic as logistic_module
from mlsa import core
from mlsa.audit import GridMismatchError
from mlsa.core import ToleranceGrid
from mlsa.generators import make_logistic_problem
from mlsa.logistic import (
    ErmConvergenceError,
    InsufficientAcceptanceError,
    LogisticGeometry,
    LogisticProblem,
    McConfig,
    build_geometry,
    build_workspace,
    crn_sandwich_report,
    fit_erm,
    geometry_report,
    load_logistic_problem,
    logistic_grid,
    min_ball_distance_sq,
    per_sample_losses,
    run_mlsa_logistic,
    sample_muB,
    verify_logistic_bound,
    verify_ellipsoid_containment,
    verify_volume_lower_bound,
)


def identity_problem(labels=(1.0, -1.0)):
    """Covariates e_1, e_2 give A = I exactly."""
    return LogisticProblem(
        covariates=np.eye(2), labels=np.array(labels), r=1.0, R=1.0
    )


def total_loss(problem, theta, exclude=None):
    losses = per_sample_losses(problem, np.asarray(theta)[None, :])[0]
    if exclude is not None:
        return float(losses.sum() - losses[exclude])
    return float(losses.sum())


# -------------------------------------------------------------------- fitting


def test_fit_erm_separable_reaches_boundary():
    rng = np.random.default_rng(0)
    x = np.column_stack([rng.choice([-0.8, 0.8], size=12), 0.1 * rng.standard_normal(12)])
    x = np.clip(x, -1, 1)
    problem = LogisticProblem(x, np.sign(x[:, 0]), r=3.0, R=1.2)
    theta = fit_erm(problem)
    assert np.linalg.norm(theta) == pytest.approx(3.0, abs=1e-6)
    assert total_loss(problem, theta) / 12 < 0.15


def test_fit_erm_sign_symmetry():
    rng = np.random.default_rng(1)
    problem = make_logistic_problem(10, 2, 1.0, 1.0, rng)
    flipped = LogisticProblem(problem.covariates, -problem.labels, r=1.0, R=1.0)
    assert np.allclose(fit_erm(problem), -fit_erm(flipped), atol=1e-9)


def _golden_section(f, lo, hi, tol=1e-12):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def test_fit_erm_1d_matches_golden_section():
    problem = LogisticProblem(
        covariates=np.array([[0.9], [-0.4]]),
        labels=np.array([1.0, 1.0]),
        r=1.5,
        R=1.0,
    )
    theta = fit_erm(problem, tol=1e-10)

    def objective(t):
        return total_loss(problem, np.array([t]))

    best = _golden_section(objective, -1.5, 1.5)
    assert theta[0] == pytest.approx(best, abs=1e-6)


def test_fit_erm_excluded_row_ignored():
    rng = np.random.default_rng(2)
    problem = make_logistic_problem(6, 2, 1.0, 1.0, rng)
    reduced = LogisticProblem(
        problem.covariates[1:], problem.labels[1:], r=1.0, R=1.0
    )
    assert np.allclose(fit_erm(problem, exclude=0), fit_erm(reduced), atol=1e-7)


def test_fit_erm_convergence_error_reports_diagnostics():
    rng = np.random.default_rng(3)
    problem = make_logistic_problem(8, 2, 1.0, 1.0, rng)
    with pytest.raises(ErmConvergenceError, match="iterations"):
        fit_erm(problem, tol=1e-300, max_iter=5)


def test_problem_validation():
    with pytest.raises(ValueError, match="labels"):
        LogisticProblem(np.eye(2), np.array([1.0, 0.0]), r=1.0, R=1.0)
    with pytest.raises(ValueError, match="norm"):
        LogisticProblem(2.0 * np.eye(2), np.array([1.0, -1.0]), r=1.0, R=1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_covariate(value):
    covariates = 0.5 * np.eye(2)
    covariates[1, 0] = value
    with pytest.raises(ValueError, match="covariates must be finite"):
        LogisticProblem(covariates, np.array([1.0, -1.0]), r=1.0, R=1.0)


@pytest.mark.parametrize("radii", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0)])
def test_problem_rejects_non_finite_radius(radii):
    r, R = radii
    with pytest.raises(ValueError, match="must be finite"):
        LogisticProblem(0.5 * np.eye(2), np.array([1.0, -1.0]), r=r, R=R)


def test_geometry_rejects_degenerate_second_moment():
    problem = LogisticProblem(
        covariates=np.array([[1.0, 0.0], [0.5, 0.0]]),
        labels=np.array([1.0, -1.0]),
        r=1.0,
        R=1.0,
    )
    with pytest.raises(ValueError, match="degenerate"):
        build_geometry(problem)


def test_geometry_square_root_and_constants():
    rng = np.random.default_rng(4)
    problem = make_logistic_problem(9, 2, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    assert np.allclose(geo.A_half @ geo.A_half, geo.A, atol=1e-8)
    rR = 1.0
    assert geo.R_B == pytest.approx(math.sqrt(9) * rR + 2.0)
    assert geo.delta == pytest.approx(1.0 + rR + math.sqrt(rR / geo.lambda_min))


def test_erm_beats_random_feasible_probes():
    rng = np.random.default_rng(5)
    problem = make_logistic_problem(12, 2, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    star = total_loss(problem, geo.theta_star)
    g = rng.standard_normal((1000, 2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    probes = g * (rng.random((1000, 1)) ** 0.5)
    probe_losses = per_sample_losses(problem, probes).sum(axis=1)
    assert star <= probe_losses.min() + 1e-6


# ----------------------------------------------------------------- membership


def test_membership_inside_ball_is_free():
    problem = identity_problem()
    geo = build_geometry(problem)
    assert min_ball_distance_sq(geo, 1.0, np.array([[0.3, -0.4]]))[0] == 0.0


def test_membership_isotropic_closed_form():
    problem = identity_problem()
    geo = build_geometry(problem)
    rng = np.random.default_rng(6)
    thetas = rng.uniform(-3, 3, size=(200, 2))
    dist = min_ball_distance_sq(geo, 1.0, thetas)
    norms = np.linalg.norm(thetas, axis=1)
    closed = np.maximum(norms - 1.0, 0.0) ** 2
    assert np.allclose(dist, closed, atol=1e-9)
    # the workspace's H_A mask is the rule dist <= rR + 1e-12 on its draws
    ws = build_workspace(geo, problem, McConfig(samples_per_level=2000, seed=6))
    dist = min_ball_distance_sq(geo, 1.0, ws.thetas)
    assert ws.member.shape == (ws.k,) and ws.member.dtype == bool
    assert np.array_equal(ws.member, dist <= 1.0 + 1e-12)
    assert 0 < ws.member.sum() < ws.k
    # and H_A is the disc of radius 2 here, away from its boundary
    norms = np.linalg.norm(ws.thetas, axis=1)
    clear = np.abs(norms - 2.0) > 1e-6
    assert np.array_equal(ws.member[clear], norms[clear] < 2.0)


def test_membership_matches_grid_projection_oracle():
    rng = np.random.default_rng(7)
    problem = make_logistic_problem(8, 2, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    radii = np.sqrt(np.linspace(0.0, 1.0, 500))
    angles = np.linspace(0.0, 2 * math.pi, 1001)[:-1]
    ball = np.column_stack(
        [
            np.outer(radii, np.cos(angles)).ravel(),
            np.outer(radii, np.sin(angles)).ravel(),
        ]
    )
    for theta in rng.uniform(-2.5, 2.5, size=(12, 2)):
        diff = ball - theta
        grid_min = float(np.min(np.einsum("ij,jk,ik->i", diff, geo.A, diff)))
        exact = float(min_ball_distance_sq(geo, 1.0, theta[None, :])[0])
        assert exact <= grid_min + 1e-9
        assert grid_min <= exact + 0.05  # grid resolution slack


def spectral_geometry(eigvals, seed):
    """A geometry over A = V diag(eigvals) V' for a random rotation V.

    Membership reads only A, its eigendecomposition and lambda_min; the other
    fields are placeholders.
    """
    d = len(eigvals)
    V, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    a = np.asarray(eigvals, dtype=float)
    A = (V * a) @ V.T
    return LogisticGeometry(
        A=A,
        eigvals=a,
        eigvecs=V,
        lambda_min=float(a[0]),
        A_half=(V * np.sqrt(a)) @ V.T,
        A_half_inv=(V / np.sqrt(a)) @ V.T,
        theta_star=np.zeros(d),
        grad_star=np.zeros(d),
        erm_loss=0.0,
        R_B=1.0,
        delta=1.0,
    )


def draws_near_level(geo, r, thr, rng, count):
    """Draws on random rays whose distance D sits within 1e-15..1e-6 relative of thr.

    Each ray's crossing scale is found by bisection on D along the ray, then
    nudged by a relative step of either sign (or kept exactly).
    """
    d = geo.eigvals.size
    u = rng.standard_normal((count, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    lo = np.full(count, r)
    hi = np.full(count, r + 2.0 * math.sqrt(thr / geo.lambda_min))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = min_ball_distance_sq(geo, r, u * mid[:, None]) > thr
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    steps = rng.choice([-1.0, 0.0, 1.0], count) * 10.0 ** rng.uniform(-15, -6, count)
    return np.vstack([u * lo[:, None], u * (hi * (1.0 + steps))[:, None]])


@settings(deadline=None, max_examples=40)
@given(
    d=st.sampled_from([1, 2, 3]),
    log_cond=st.one_of(st.just(0.0), st.floats(0.0, 6.0)),
    scale=st.floats(0.05, 50.0),
    r=st.floats(0.1, 3.0),
    R=st.floats(0.1, 3.0),
    eps=st.sampled_from([1e-12, 1e-9]),
    seed=st.integers(0, 10_000),
)
def test_membership_screen_matches_bisection(d, log_cond, scale, r, R, eps, seed):
    rng = np.random.default_rng(seed)
    eigvals = np.sort(scale * 10.0 ** (log_cond * rng.random(d)))
    eigvals[0], eigvals[-1] = scale, scale * 10.0**log_cond
    geo = spectral_geometry(eigvals, seed)
    thr = r * R + eps
    reach = r + 3.0 * math.sqrt(thr / geo.lambda_min)
    thetas = np.vstack(
        [
            draws_near_level(geo, r, thr, rng, 128),
            rng.uniform(-reach, reach, size=(256, d)),
        ]
    )
    exact = min_ball_distance_sq(geo, r, thetas)
    assert np.array_equal(logistic_module._in_HA(geo, r, thetas, thr), exact <= thr)
    # outside the ball the closed-form bounds bracket the bisection, up to
    # rounding well inside the band the screen leaves to the bisection
    outside = np.linalg.norm(thetas, axis=1) > r
    lower, upper = logistic_module._distance_bounds(geo, r, thetas[outside])
    slack = 0.1 * logistic_module._BAND_REL * np.maximum(exact[outside], thr)
    assert np.all(lower <= exact[outside] + slack)
    assert np.all(exact[outside] <= upper + slack)


def test_membership_screen_sends_only_the_band_to_bisection(monkeypatch):
    rng = np.random.default_rng(60)
    problem = make_logistic_problem(50, 2, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    thetas = sample_muB(geo, 20_000, seed=61)
    thr = problem.r * problem.R + 1e-12
    expected = min_ball_distance_sq(geo, problem.r, thetas) <= thr
    rows = []

    def counting(geometry, r, band):
        rows.append(len(band))
        return min_ball_distance_sq(geometry, r, band)

    monkeypatch.setattr(logistic_module, "min_ball_distance_sq", counting)
    assert np.array_equal(logistic_module._in_HA(geo, problem.r, thetas, thr), expected)
    outside = int(np.sum(np.linalg.norm(thetas, axis=1) > problem.r))
    assert len(rows) == 1 and rows[0] < 0.05 * outside


# ------------------------------------------------------------------- sampling


def test_sample_muB_respects_ellipsoid():
    rng = np.random.default_rng(8)
    problem = make_logistic_problem(10, 2, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    thetas = sample_muB(geo, 5000, seed=9)
    norms = np.linalg.norm(thetas @ geo.A_half, axis=1)
    assert np.all(norms <= geo.R_B + 1e-9)


def test_sample_muB_is_centered():
    problem = identity_problem()
    geo = build_geometry(problem)
    thetas = sample_muB(geo, 40_000, seed=10)
    stderr = thetas.std(axis=0) / math.sqrt(40_000)
    assert np.all(np.abs(thetas.mean(axis=0)) <= 3 * stderr)


def test_sample_muB_half_radius_mass():
    problem = identity_problem()
    geo = build_geometry(problem)
    thetas = sample_muB(geo, 40_000, seed=11)
    inside = np.linalg.norm(thetas @ geo.A_half, axis=1) <= geo.R_B / 2
    fraction = inside.mean()
    assert abs(fraction - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 40_000)


# ------------------------------------------------------------ level estimates
#
# The rejection-sampling oracle: one level set of the shared pool at a time,
# by a plain mask over the member draws, with the aggregate recomputed from the
# accepted parameter vectors.  It never touches the sorted sweep or the pool's
# ``sig`` table, so ``test_estimate_level_consistent_with_run_cells`` checks
# both independently.


@dataclasses.dataclass(frozen=True)
class LevelEstimate:
    """Rejection estimate of the measure of one level set."""

    estimate: float
    accepted: np.ndarray  # accepted parameter vectors, (count, d)


def estimate_level(geometry, problem, t, exclude=None, mc=None, workspace=None):
    """Estimate mu_B of the level set at tolerance t by rejection from mu_B.

    With a shared workspace the same sample pool serves every call, so
    estimates at nested tolerances use nested accepted sets.
    """
    if not t >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {t!r}")
    if workspace is None:
        workspace = build_workspace(geometry, problem, mc)
    if exclude is None:
        ref = workspace.ref_full
        sample_losses = workspace.totals
    else:
        ref = float(workspace.ref_excl[exclude])
        sample_losses = workspace.totals - workspace.losses[:, exclude]
    accepted_mask = sample_losses <= ref + t
    count = int(accepted_mask.sum())
    if count < mc.min_accepted:
        raise InsufficientAcceptanceError(
            f"only {count} of {workspace.k} samples accepted at t={t:.6g}, "
            f"exclude={exclude} (need {mc.min_accepted}); increase samples_per_level"
        )
    return LevelEstimate(
        estimate=count / workspace.k,
        accepted=workspace.thetas[workspace.member][accepted_mask],
    )


def aggregate_prob(accepted, problem, i):
    """Mean predicted probability of the observed label y_i over accepted draws."""
    z = problem.labels[i] * (np.atleast_2d(accepted) @ problem.covariates[i])
    return float(logistic_module._sigmoid(z).mean())


def test_estimate_level_vacuous_tolerance_measures_HA():
    rng = np.random.default_rng(12)
    problem = make_logistic_problem(8, 2, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    mc = McConfig(samples_per_level=4000, seed=13)
    ws = build_workspace(geo, problem, mc)
    huge = 1e9
    est = estimate_level(geo, problem, huge, mc=mc, workspace=ws)
    assert est.estimate == pytest.approx(ws.member.mean())


def test_estimate_level_monotone_under_common_randomness():
    rng = np.random.default_rng(14)
    problem = make_logistic_problem(10, 2, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    mc = McConfig(samples_per_level=20_000, seed=15)
    ws = build_workspace(geo, problem, mc)
    estimates = [
        estimate_level(geo, problem, t, exclude=3, mc=mc, workspace=ws).estimate
        for t in [2.0, 4.0, 8.0, 16.0]
    ]
    assert estimates == sorted(estimates)


def test_estimate_level_positive_just_above_zero():
    rng = np.random.default_rng(16)
    problem = make_logistic_problem(8, 1, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    mc = McConfig(samples_per_level=60_000, seed=17)
    ws = build_workspace(geo, problem, mc)
    est = estimate_level(geo, problem, 0.05, mc=mc, workspace=ws)
    assert est.estimate > 0


def test_estimate_level_insufficient_acceptance_names_cell():
    rng = np.random.default_rng(18)
    problem = make_logistic_problem(8, 2, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    mc = McConfig(samples_per_level=200, seed=19, min_accepted=200)
    ws = build_workspace(geo, problem, mc)
    with pytest.raises(InsufficientAcceptanceError, match="t="):
        estimate_level(geo, problem, 0.01, exclude=2, mc=mc, workspace=ws)


def test_estimate_level_rejects_nan_tolerance():
    # nan < 0 is False: a NaN tolerance used to accept no draw and be
    # reported as too few samples
    problem = make_logistic_problem(8, 1, 1.0, 1.0, np.random.default_rng(16))
    geo = build_geometry(problem)
    with pytest.raises(ValueError, match="nonnegative, got nan"):
        estimate_level(geo, problem, math.nan, mc=McConfig(samples_per_level=1000, seed=17))


def test_mcconfig_validation():
    with pytest.raises(ValueError):
        McConfig(samples_per_level=1000, min_accepted=50)
    with pytest.raises(ValueError):
        McConfig(samples_per_level=50, min_accepted=100)


# ---------------------------------------------------------------- aggregation


def test_aggregate_prob_at_origin_is_half():
    problem = identity_problem()
    assert aggregate_prob(np.zeros((1, 2)), problem, 0) == 0.5


def test_aggregate_prob_common_logit():
    problem = identity_problem()
    # covariate e_1: the second coordinate never enters the logit
    thetas = np.array([[0.7, -2.0], [0.7, 3.0], [0.7, 0.0]])
    expected = 1.0 / (1.0 + math.exp(-0.7))
    assert aggregate_prob(thetas, problem, 0) == pytest.approx(expected)


def test_aggregate_prob_self_consistent_across_seeds():
    rng = np.random.default_rng(20)
    problem = make_logistic_problem(8, 2, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    values = []
    errs = []
    for seed in (21, 22):
        mc = McConfig(samples_per_level=100_000, seed=seed)
        ws = build_workspace(geo, problem, mc)
        est = estimate_level(geo, problem, 3.0, exclude=1, mc=mc, workspace=ws)
        sig = 1.0 / (1.0 + np.exp(-problem.labels[1] * (est.accepted @ problem.covariates[1])))
        values.append(sig.mean())
        errs.append(sig.std(ddof=1) / math.sqrt(sig.size))
    assert abs(values[0] - values[1]) <= 3 * math.hypot(*errs)


# ----------------------------------------------------------------------- grid


def test_logistic_grid_size_d2_n50():
    rng = np.random.default_rng(23)
    problem = make_logistic_problem(50, 2, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    grid = logistic_grid(geo, problem)
    assert len(grid) == 148  # ceil(32 * ln 100) = ceil(147.36...)
    assert grid.gap == geo.delta


def test_logistic_grid_delta_identity_geometry():
    problem = identity_problem()
    geo = build_geometry(problem)
    assert geo.delta == pytest.approx(3.0)  # 1 + rR + sqrt(rR / 1) * R


def test_logistic_grid_monotone_in_n():
    rng = np.random.default_rng(24)
    sizes = []
    for n in (10, 40, 160):
        problem = make_logistic_problem(n, 2, 1.0, 1.0, rng)
        geo = build_geometry(problem)
        sizes.append(len(logistic_grid(geo, problem)))
    assert sizes == sorted(sizes)


# ------------------------------------------------------------------ full runs


def test_run_single_sample_aggregates_all_of_HA():
    problem = LogisticProblem(
        covariates=np.array([[0.8]]), labels=np.array([1.0]), r=1.0, R=1.0
    )
    mc = McConfig(samples_per_level=20_000, seed=25)
    run = run_mlsa_logistic(problem, mc)
    ws = run.workspace
    sig = 1.0 / (1.0 + np.exp(-(ws.thetas[ws.member, 0] * 0.8)))
    expected = sig.mean()
    assert np.allclose(run.output.per_level, expected)
    assert run.output.medians[0] == pytest.approx(expected)


def test_run_symmetric_pair_predicts_identically():
    x = np.array([[0.6, 0.2], [-0.6, -0.2]])
    problem = LogisticProblem(x, np.array([1.0, -1.0]), r=1.0, R=1.0)
    mc = McConfig(samples_per_level=5000, seed=26)
    run = run_mlsa_logistic(problem, mc)
    # the two rows share the same logit for every parameter, and common random
    # numbers make the accepted sets equal, so the outputs match exactly
    assert np.array_equal(run.output.per_level[:, 0], run.output.per_level[:, 1])


def quadrature_loo(problem, n_grid=200_001, n_ball=40_001):
    """Dense 1-d quadrature replacement for the MC pipeline."""
    x = problem.covariates[:, 0]
    y = problem.labels
    n = x.size
    r, R = problem.r, problem.R
    A = float(x @ x)
    rR = r * R
    R_B = math.sqrt(n) * rR + 2.0 * math.sqrt(rR)
    delta = 1.0 + rR + math.sqrt(rR / A) * R
    count = math.ceil(16 * math.log(max(8.0, 2.0 * n * rR)))
    levels = delta * np.arange(1, count + 1)
    theta = np.linspace(-R_B / math.sqrt(A), R_B / math.sqrt(A), n_grid)
    member = A * np.maximum(np.abs(theta) - r, 0.0) ** 2 <= rR
    z = theta[:, None] * (y * x)[None, :]
    losses = np.logaddexp(0.0, -z)
    totals = losses.sum(axis=1)
    ball = np.linspace(-r, r, n_ball)
    ball_losses = np.logaddexp(0.0, -(ball[:, None] * (y * x)[None, :]))
    ball_totals = ball_losses.sum(axis=1)
    per_level = np.empty((count, n))
    for i in range(n):
        ref = float((ball_totals - ball_losses[:, i]).min())
        excl = totals - losses[:, i]
        sig = 1.0 / (1.0 + np.exp(-z[:, i]))
        for k, t in enumerate(levels):
            sel = member & (excl <= ref + t)
            per_level[k, i] = sig[sel].mean()
    medians = np.sort(per_level, axis=0)[(count + 1) // 2 - 1]
    return float(np.mean(-np.log(medians)))


def test_run_matches_quadrature_oracle_1d():
    rng = np.random.default_rng(27)
    problem = make_logistic_problem(6, 1, 1.0, 1.0, rng)
    mc = McConfig(samples_per_level=200_000, seed=28)
    run = run_mlsa_logistic(problem, mc)
    assert run.output.loo_error == pytest.approx(quadrature_loo(problem), abs=1e-2)


def test_run_crn_sandwich_has_no_violations():
    rng = np.random.default_rng(29)
    problem = make_logistic_problem(12, 2, 1.0, 1.0, rng)
    run = run_mlsa_logistic(problem, McConfig(samples_per_level=10_000, seed=30))
    report = crn_sandwich_report(run)
    assert report.violations == 0


def test_crn_sandwich_agrees_with_naive_set_inclusion():
    rng = np.random.default_rng(48)
    problem = make_logistic_problem(5, 2, 1.0, 1.0, rng)
    run = run_mlsa_logistic(problem, McConfig(samples_per_level=2000, seed=49, min_accepted=100))
    ws = run.workspace
    levels = run.output.grid.levels
    delta = run.output.grid.gap
    naive_violations = 0
    member = np.flatnonzero(ws.member)  # the draw index of each pool row
    for i in range(problem.n):
        excl = ws.totals - ws.losses[:, i]
        for t in levels:
            lower = set(member[ws.totals - ws.ref_full <= t - delta].tolist())
            inner = set(member[excl - ws.ref_excl[i] <= t].tolist())
            upper = set(member[ws.totals - ws.ref_full <= t + delta].tolist())
            naive_violations += int(not lower <= inner) + int(not inner <= upper)
    report = crn_sandwich_report(run)
    assert naive_violations == 0
    assert report.violations == naive_violations


def test_estimate_level_consistent_with_run_cells():
    rng = np.random.default_rng(50)
    problem = make_logistic_problem(6, 2, 1.0, 1.0, rng)
    mc = McConfig(samples_per_level=20_000, seed=51)
    run = run_mlsa_logistic(problem, mc)
    grid = run.output.grid
    for i in (0, 3):
        for k in (0, len(grid) // 2, len(grid) - 1):
            est = estimate_level(
                run.geometry, problem, float(grid.levels[k]), exclude=i,
                mc=mc, workspace=run.workspace,
            )
            assert aggregate_prob(est.accepted, problem, i) == pytest.approx(
                run.output.per_level[k, i], abs=1e-12
            )


def test_member_losses_bounded_by_delta():
    rng = np.random.default_rng(31)
    problem = make_logistic_problem(10, 2, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    mc = McConfig(samples_per_level=20_000, seed=32)
    ws = build_workspace(geo, problem, mc)
    assert float(ws.losses.max()) <= geo.delta + 1e-9


def test_workspace_holds_member_draws_only():
    rng = np.random.default_rng(34)
    problem = make_logistic_problem(9, 2, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    ws = build_workspace(geo, problem, McConfig(samples_per_level=20_000, seed=35))
    members = int(ws.member.sum())
    assert 0 < members < ws.k == 20_000
    # the tables are filled in blocks: cover a block boundary and a short last block
    chunk = logistic_module._CHUNK_ROWS
    assert members > chunk and members % chunk != 0
    assert ws.losses.shape == ws.sig.shape == (members, problem.n)
    # stored per index: the rows losses.T[i] and sig.T[i] that the sweep and
    # the sandwich read are contiguous
    assert ws.losses.T.flags.c_contiguous and ws.sig.T.flags.c_contiguous
    # one allocation holds both tables, so it is freed as a whole
    assert ws.losses.base is not None and ws.losses.base is ws.sig.base
    assert ws.totals.shape == (members,)
    expected = per_sample_losses(problem, ws.thetas[ws.member])
    assert ws.losses.tobytes() == expected.tobytes()
    assert ws.totals.tobytes() == expected.sum(axis=1).tobytes()
    z = (ws.thetas[ws.member] @ problem.covariates.T) * problem.labels[None, :]
    assert ws.sig.tobytes() == logistic_module._sigmoid(z).tobytes()
    # sigmoid(z) = exp(-log(1 + exp(-z)))
    assert np.allclose(ws.sig, np.exp(-expected), rtol=1e-12, atol=0.0)


def masked_sigmoid(z):
    """The two-branch sigmoid, each branch on its own boolean-mask gather."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_identical_to_the_masked_branches():
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([0.0, -0.0, 700.0, -700.0, 710.0, -750.0, tiny, -tiny,
                        1e-310, -1e-310, 2.2e-308, -2.2e-308, 1.0, -1.0])
    drawn = np.random.default_rng(3).normal(scale=20.0, size=100_003)
    for z in (special, drawn, drawn[:100_000].reshape(4000, 25)):
        assert logistic_module._sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
        out = np.empty(z.shape[::-1]).T
        assert logistic_module._sigmoid(z, out=out) is out
        assert out.tobytes() == masked_sigmoid(z).tobytes()


def test_pool_is_byte_identical_on_any_worker_count(monkeypatch, block_pool_calls):
    problem = make_logistic_problem(9, 2, 1.0, 1.0, np.random.default_rng(36))
    mc = McConfig(samples_per_level=120_000, seed=37)
    results = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(core, "_WORKERS", workers)
        block_pool_calls.clear()
        run = run_mlsa_logistic(problem, mc)
        ws = run.workspace
        # a gap shrunk below the loss bound, so the sandwich fails somewhere
        grid = dataclasses.replace(run.output.grid, gap=0.1 * run.output.grid.gap)
        shrunk = dataclasses.replace(run, output=dataclasses.replace(run.output, grid=grid))
        tables = (ws.losses, ws.sig, ws.totals, run.output.per_level, run.output.medians)
        results[workers] = (
            [a.tobytes() for a in tables],
            crn_sandwich_report(run),
            crn_sandwich_report(shrunk),
        )
        # the table fill, the sweep and both sandwich checks share out their blocks
        assert len(block_pool_calls) == (0 if workers == 1 else 4)
    # rows wide enough for the sweep and the sandwich to use the pool
    assert ws.totals.size >= core._PARALLEL_ROW_ENTRIES
    assert results[1][1].violations == 0 < results[1][2].violations
    assert results[1] == results[2] == results[3]


def test_ellipsoid_draws_scale_in_place_with_the_same_bits():
    geo = build_geometry(make_logistic_problem(12, 3, 1.0, 2.0, np.random.default_rng(8)))
    rng = np.random.default_rng(9)
    g = rng.standard_normal((5000, 3))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    radii = rng.random(5000) ** (1.0 / 3)
    expected = (g * radii[:, None] * geo.R_B) @ geo.A_half_inv
    got = logistic_module._ellipsoid_draws(geo, 5000, geo.R_B, np.random.default_rng(9))
    assert got.tobytes() == expected.tobytes()


def test_workspace_with_no_member_draws():
    rng = np.random.default_rng(5)
    problem = make_logistic_problem(20, 8, 0.1, 0.1, rng)
    geo = build_geometry(problem)
    ws = build_workspace(geo, problem, McConfig(samples_per_level=100, seed=1))
    assert not ws.member.any() and ws.k == 100
    assert ws.losses.shape == ws.sig.shape == (0, problem.n)
    assert ws.totals.shape == (0,)


def test_probabilities_strictly_inside_unit_interval():
    rng = np.random.default_rng(33)
    problem = make_logistic_problem(8, 2, 1.0, 1.0, rng)
    run = run_mlsa_logistic(problem, McConfig(samples_per_level=5000, seed=34))
    assert np.all(run.output.per_level > 0.0) and np.all(run.output.per_level < 1.0)
    assert math.isfinite(run.output.loo_error)


# ----------------------------------------------------------- geometry checks


def test_containment_boundary_minimizer():
    rng = np.random.default_rng(35)
    problem = make_logistic_problem(20, 2, 1.0, 1.0, rng, noise=0)
    geo = build_geometry(problem)
    report = verify_ellipsoid_containment(geo, problem, McConfig(samples_per_level=10_000, seed=36))
    assert report.violations == 0
    assert not report.interior
    assert abs(report.halfspace_fraction - 0.5) <= 3 * report.halfspace_stderr
    assert report.passed


def test_containment_interior_minimizer():
    # balanced conflicting labels at shared covariates put the minimizer at 0
    x = np.array([[0.9, 0.0], [0.9, 0.0], [0.0, 0.9], [0.0, 0.9]])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    problem = LogisticProblem(x, y, r=1.0, R=1.0)
    geo = build_geometry(problem, tol=1e-10)
    report = verify_ellipsoid_containment(geo, problem, McConfig(samples_per_level=4000, seed=37))
    assert report.interior
    assert report.halfspace_fraction == 1.0
    assert report.violations == 0


def test_volume_lower_bound_d1_and_d2():
    rng = np.random.default_rng(38)
    for d, k in [(1, 20_000), (2, 100_000)]:
        problem = make_logistic_problem(20, d, 1.0, 1.0, rng)
        geo = build_geometry(problem)
        report = verify_volume_lower_bound(
            geo, problem, McConfig(samples_per_level=k, seed=39)
        )
        assert report.passed
        assert report.estimate <= 1.0


# --------------------------------------------------------------- certificate


def test_logistic_bound_components_echo_geometry():
    rng = np.random.default_rng(40)
    problem = make_logistic_problem(12, 2, 1.0, 1.0, rng)
    run = run_mlsa_logistic(problem, McConfig(samples_per_level=4000, seed=41))
    cert = verify_logistic_bound(run.output, run.geometry, problem)
    total = float(per_sample_losses(problem, run.geometry.theta_star[None, :]).sum())
    assert run.output.erm_loss.hex() == run.geometry.erm_loss.hex() == total.hex()
    assert cert.components["erm_loss"] == total
    assert cert.components["delta"] == run.geometry.delta
    assert cert.components["grid_size"] == len(run.output.grid)
    assert cert.components["log_term"] == pytest.approx(math.log(max(8.0, 24.0)))
    assert cert.components["rhs_nominal"] == pytest.approx(cert.rhs / 1.05)
    assert cert.passed


def test_logistic_bound_grid_mismatch():
    rng = np.random.default_rng(42)
    problem = make_logistic_problem(12, 2, 1.0, 1.0, rng)
    run = run_mlsa_logistic(problem, McConfig(samples_per_level=4000, seed=43))
    other = make_logistic_problem(30, 2, 1.0, 1.0, rng)
    with pytest.raises(GridMismatchError):
        verify_logistic_bound(run.output, build_geometry(other), other)


def test_logistic_bound_grid_length_mismatch():
    problem = make_logistic_problem(12, 2, 1.0, 1.0, np.random.default_rng(42))
    run = run_mlsa_logistic(problem, McConfig(samples_per_level=4000, seed=43))
    grid = run.output.grid
    short = dataclasses.replace(run.output, grid=ToleranceGrid(grid.levels[:3], gap=grid.gap))
    with pytest.raises(GridMismatchError, match="logistic grid"):
        verify_logistic_bound(short, run.geometry, problem)


def test_logistic_bound_scaling_rerun_keeps_verdict():
    rng = np.random.default_rng(44)
    base = make_logistic_problem(10, 1, 1.0, 1.0, rng)
    scaled = LogisticProblem(0.5 * base.covariates, base.labels, r=1.0, R=0.5)
    verdicts = []
    for problem in (base, scaled):
        run = run_mlsa_logistic(problem, McConfig(samples_per_level=20_000, seed=45))
        cert = verify_logistic_bound(run.output, run.geometry, problem)
        verdicts.append(cert.passed)
    assert verdicts[0] == verdicts[1]


def test_geometry_report_fields():
    rng = np.random.default_rng(46)
    problem = make_logistic_problem(10, 2, 1.0, 1.0, rng)
    geo = build_geometry(problem)
    report = geometry_report(geo, problem)
    assert set(report) == {
        "eigenvalues", "lambda_min", "theta_star", "grad_norm", "R_B", "delta", "grid_size",
    }
    assert len(report["eigenvalues"]) == 2


def test_load_logistic_problem(tmp_path):
    rng = np.random.default_rng(47)
    problem = make_logistic_problem(6, 2, 1.0, 1.0, rng)
    path = tmp_path / "problem.txt"
    np.savetxt(path, np.column_stack([problem.covariates, problem.labels]), fmt="%.17g")
    loaded = load_logistic_problem(path, r=1.0, R=1.0)
    assert np.allclose(loaded.covariates, problem.covariates)
    assert np.array_equal(loaded.labels, problem.labels)
