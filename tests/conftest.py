"""Fixtures shared by the test modules."""

import sys
import threading

import pytest

from mlsa import core


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
    """A list that records every request for ``core._block_pool``, the pool
    ``core._for_each_block`` submits to, by the requesting thread's name."""
    calls = []
    block_pool = core._block_pool

    def spy():
        calls.append(threading.current_thread().name)
        return block_pool()

    monkeypatch.setattr(core, "_block_pool", spy)
    return calls
