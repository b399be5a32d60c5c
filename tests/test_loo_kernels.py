"""The sorted leave-one-out sweep and the sandwich check against brute force.

``run_mlsa``, the growth audit and the logistic CRN sandwich share one sorted
sweep over the leave-one-out totals of every row.  Here each is compared with
set arithmetic on the brute-force oracles ``level_set`` and
``empirical_loss``.  Tables take quarter-valued entries, so losses and totals
are exact dyadic rationals: ties are frequent, and every threshold form agrees
exactly with the oracles' ``totals <= min + t``.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsa.audit import grid_growth_audit
from mlsa.core import (
    NUMERIC_TOL,
    AggregationRule,
    LabeledSample,
    PredictionTable,
    ToleranceGrid,
    empirical_loss,
    level_set,
    run_mlsa,
)
from mlsa.generators import make_logistic_problem
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
def test_run_mlsa_without_combine_matches_brute_force_level_sets(problem):
    table, sample, loss, levels = problem
    agg = AggregationRule(name="average", on_values=MEAN_AGGREGATE.on_values)
    output = run_mlsa(table, sample, loss, ToleranceGrid(levels, gap=loss.delta_bound), agg)
    columns = range(table.n_hypotheses)
    for i in range(table.n_samples):
        excl = np.array([empirical_loss(table, sample, loss, j, exclude=i) for j in columns])
        for k, t in enumerate(levels):
            members = level_set(table, sample, loss, t, exclude=i)
            assert members.tolist() == np.flatnonzero(excl <= excl.min() + t).tolist()
            assert output.per_level[k, i] == agg.on_values(table.values[i, members])


@settings(deadline=None, max_examples=150)
@given(problem=quarter_problems(), gap=st.sampled_from([0.25, 0.5, 0.75, 1.0]))
def test_growth_audit_sandwich_matches_brute_force_inclusion(problem, gap):
    # gaps below the loss bound 1 let the sandwich fail
    table, sample, loss, levels = problem
    audit = grid_growth_audit(table, sample, loss, ToleranceGrid(levels, gap=gap))
    for record, t in zip(audit.levels, levels):
        upper = set(level_set(table, sample, loss, t + gap).tolist())
        lower = set(level_set(table, sample, loss, t - gap).tolist()) if t >= gap else set()
        nested = True
        for i in range(table.n_samples):
            inner = set(level_set(table, sample, loss, t, exclude=i).tolist())
            nested &= lower <= inner <= upper
        assert record.sandwich_ok == nested


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
