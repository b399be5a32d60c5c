"""Fixtures shared by the test modules."""

import sys
import threading

import pytest

from mlsa import core
from mlsa import logistic


@pytest.fixture
def loss_matrix_calls(monkeypatch):
    """A list that records every ``core.loss_matrix`` call.

    The spy replaces the function at every ``mlsa`` module attribute that
    binds it, as the benchmark's tracer does, so calls made from inside the
    package are counted too.
    """
    calls = []
    original = core.loss_matrix

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mlsa" and vars(module).get("loss_matrix") is original:
            monkeypatch.setattr(module, "loss_matrix", spy)
    return calls


@pytest.fixture
def block_pool_calls(monkeypatch):
    """A list that records every executor ``core._for_each_block`` opens, one
    per call that shares its blocks out, by the opening thread's name."""
    calls = []

    class Spy(core.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            calls.append(threading.current_thread().name)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(core, "ThreadPoolExecutor", Spy)
    return calls


@pytest.fixture
def containment_rows(monkeypatch):
    """The draws given to the logistic level test (``_loss_totals``) and the
    H_A test (``_in_HA``), one count per call, in a dict keyed by function."""
    rows = {"_loss_totals": [], "_in_HA": []}
    loss_totals, in_HA = logistic._loss_totals, logistic._in_HA

    def loss_totals_spy(problem, thetas):
        rows["_loss_totals"].append(thetas.shape[0])
        return loss_totals(problem, thetas)

    def in_HA_spy(geometry, r, thetas, thr):
        rows["_in_HA"].append(thetas.shape[0])
        return in_HA(geometry, r, thetas, thr)

    monkeypatch.setattr(logistic, "_loss_totals", loss_totals_spy)
    monkeypatch.setattr(logistic, "_in_HA", in_HA_spy)
    return rows
