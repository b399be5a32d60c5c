"""Outside-in span tracer for the mlsa benchmark.

The benchmark does not edit the package.  It wraps mlsa's public functions at
every module attribute that binds them (``run_mlsa`` is bound in
``mlsa.core``, ``mlsa.cli``, ``mlsa.density`` and ``mlsa`` itself), so calls
made from inside the package are traced as well.  Each span records its name,
start, end, parent span, thread and unit id; spans stay in memory until the
run writes them out.  A span's self time is its duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict


def _workspace_counts(ws):
    arrays = (ws.thetas, ws.member, ws.losses, ws.totals, ws.sig, ws.theta_star_minus, ws.ref_excl)
    return {
        "draws": ws.k,
        "members": int(ws.member.sum()),
        "pool_bytes": sum(a.nbytes for a in arrays),
    }


#: (module, function, count hook).  The span name is "<layer>.<function>",
#: the layer being the module name without the "mlsa." prefix.  A hook maps
#: the call's result to counters stored on the span.
TARGETS = (
    ("mlsa.generators", "make_classification_instance", None),
    ("mlsa.generators", "make_regression_instance", None),
    ("mlsa.generators", "make_density_instance", None),
    ("mlsa.generators", "make_logistic_problem", None),
    ("mlsa.generators", "make_linear_instance", None),
    ("mlsa.classification", "restrict_class", lambda r: {"hypotheses": r.n_hypotheses}),
    ("mlsa.classification", "verify_classification_bound", None),
    ("mlsa.core", "run_mlsa", lambda r: {"cells": r.per_level.size}),
    ("mlsa.core", "loss_matrix", None),
    ("mlsa.audit", "grid_growth_audit", None),
    ("mlsa.audit", "verify_grid_majority_bound", None),
    ("mlsa.regression", "verify_regression_bound", None),
    ("mlsa.density", "mlsa_for_density", None),
    ("mlsa.density", "verify_density_bound", None),
    ("mlsa.linear", "fit_transductive_vaw", None),
    ("mlsa.linear", "vaw_certificate", None),
    ("mlsa.logistic", "build_geometry", None),
    ("mlsa.logistic", "fit_erm", None),
    ("mlsa.logistic", "sample_muB", None),
    ("mlsa.logistic", "min_ball_distance_sq", lambda r: {"rows": len(r)}),
    ("mlsa.logistic", "build_workspace", _workspace_counts),
    ("mlsa.logistic", "run_mlsa_logistic", None),
    ("mlsa.logistic", "crn_sandwich_report", None),
    ("mlsa.logistic", "verify_logistic_bound", None),
    ("mlsa.cli", "main", None),
    ("mlsa.cli", "run_experiment", None),
    ("mlsa.cli", "write_report", None),
    ("mlsa.cli", "write_csv", None),
)

#: Worker threads of the cli-sweep thread pool (``--threads 2``).
SWEEP_THREADS = 2


class Tracer:
    """Span recorder; install() patches the targets, uninstall() restores them."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.unit = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._patches: list[tuple] = []
        self._origin = time.perf_counter()

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        # a pool thread's outermost span was caused by the span the main
        # thread has open while it waits on the pool
        caller = stack or self._main_stack
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": caller[-1]["id"] if caller else None,
            "thread": threading.get_ident(),
            "unit": self.unit,
            "start": time.perf_counter() - self._origin,
            "end": None,
        }
        stack.append(record)
        return record

    def close(self, record: dict) -> None:
        record["end"] = time.perf_counter() - self._origin
        self._stack().pop()
        self.spans.append(record)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(record)
            if hook is not None:
                record["counts"] = hook(result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for module_name, attr, hook in TARGETS:
            fn = getattr(sys.modules[module_name], attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, f"{module_name[5:]}.{attr}", hook))
        for module_name, module in list(sys.modules.items()):
            if module_name != "mlsa" and not module_name.startswith("mlsa."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        lo_bound, hi_bound = span["start"], span["end"]
        covered = 0.0
        run_lo = run_hi = None
        intervals = sorted(
            (max(c["start"], lo_bound), min(c["end"], hi_bound)) for c in children[span["id"]]
        )
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[span["id"]] = (hi_bound - lo_bound) - covered
    return out


def unit_profiles(spans: list[dict]) -> dict:
    """Per unit: inclusive time, self time and call count per span name, plus counters."""
    selfs = self_times(spans)
    profiles: dict = {}
    for span in spans:
        unit = profiles.setdefault(
            span["unit"],
            {"incl": defaultdict(float), "self": defaultdict(float),
             "calls": defaultdict(int), "counts": defaultdict(int)},
        )
        name = span["name"]
        unit["incl"][name] += span["end"] - span["start"]
        unit["self"][name] += selfs[span["id"]]
        unit["calls"][name] += 1
        for key, value in span.get("counts", {}).items():
            unit["counts"][key] += value
    return profiles


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Per-layer metric -> (unit, function of one unit's profile).  The names are
#: the stage names the in-program tracer is meant to reuse.
PER_LAYER = {
    "generators.make_instance_s": ("s", lambda p: sum(
        v for k, v in p["incl"].items() if k.startswith("generators."))),
    "classification.restrict_class_s": ("s", lambda p: p["incl"]["classification.restrict_class"]),
    "classification.hypotheses": ("count", lambda p: p["counts"]["hypotheses"]),
    "core.run_mlsa_self_s": ("s", lambda p: p["self"]["core.run_mlsa"]),
    "core.loss_matrix_s": ("s", lambda p: p["incl"]["core.loss_matrix"]),
    "core.loss_matrix_calls": ("count", lambda p: p["calls"]["core.loss_matrix"]),
    "core.cells": ("count", lambda p: p["counts"]["cells"]),
    "audit.grid_growth_audit_self_s": ("s", lambda p: p["self"]["audit.grid_growth_audit"]),
    "audit.verify_grid_majority_bound_s": ("s", lambda p: p["incl"]["audit.verify_grid_majority_bound"]),
    "classification.verify_bound_s": ("s", lambda p: p["incl"]["classification.verify_classification_bound"]),
    "regression.verify_bound_s": ("s", lambda p: p["incl"]["regression.verify_regression_bound"]),
    "density.mlsa_for_density_s": ("s", lambda p: p["incl"]["density.mlsa_for_density"]),
    "linear.fit_transductive_vaw_s": ("s", lambda p: p["incl"]["linear.fit_transductive_vaw"]),
    "logistic.build_geometry_s": ("s", lambda p: p["incl"]["logistic.build_geometry"]),
    "logistic.fit_erm_s": ("s", lambda p: p["incl"]["logistic.fit_erm"]),
    "logistic.fit_erm_calls": ("count", lambda p: p["calls"]["logistic.fit_erm"]),
    "logistic.sample_muB_s": ("s", lambda p: p["incl"]["logistic.sample_muB"]),
    "logistic.min_ball_distance_sq_s": ("s", lambda p: p["incl"]["logistic.min_ball_distance_sq"]),
    "logistic.membership_rows": ("count", lambda p: p["counts"]["rows"]),
    "logistic.member_frac": ("ratio", lambda p: _ratio(p["counts"]["members"], p["counts"]["draws"])),
    "logistic.pool_mb": ("MB_computed", lambda p: p["counts"]["pool_bytes"] / 1e6),
    "logistic.build_workspace_self_s": ("s", lambda p: p["self"]["logistic.build_workspace"]),
    "logistic.loo_sweep_s": ("s", lambda p: p["self"]["logistic.run_mlsa_logistic"]),
    "logistic.crn_sandwich_s": ("s", lambda p: p["incl"]["logistic.crn_sandwich_report"]),
    "logistic.verify_bound_s": ("s", lambda p: p["incl"]["logistic.verify_logistic_bound"]),
    "cli.sweep_s": ("s", lambda p: p["incl"]["cli.main"]),
    "cli.run_experiment_s": ("s", lambda p: p["incl"]["cli.run_experiment"]),
    "cli.jobs": ("count", lambda p: p["calls"]["cli.run_experiment"]),
    "cli.write_s": ("s", lambda p: p["incl"]["cli.write_report"] + p["incl"]["cli.write_csv"]),
    "cli.worker_busy_frac": ("ratio", lambda p: _ratio(
        p["incl"]["cli.run_experiment"], p["incl"]["cli.main"] * SWEEP_THREADS)),
    "cli.cpu_per_wall": ("ratio", lambda p: p["cpu_per_wall"]),
}


def per_layer_metrics(profiles: dict) -> dict:
    """Median over traced units of each per-layer metric."""
    return {
        name: {"value": statistics.median(fn(p) for p in profiles.values()), "unit": unit}
        for name, (unit, fn) in PER_LAYER.items()
    }


def self_time_table(profiles: dict) -> list[tuple[str, float]]:
    """Mean self time per unit for every span name, largest first; the root
    span "unit" holds the time no layer span covers."""
    totals: dict = defaultdict(float)
    for p in profiles.values():
        for name, value in p["self"].items():
            if p["calls"].get(name):
                totals[name] += value
    return sorted(((k, v / len(profiles)) for k, v in totals.items()), key=lambda kv: -kv[1])
