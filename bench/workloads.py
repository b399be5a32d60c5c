"""The benchmark's three workloads: inputs from a seed, the timed chain, checks.

Every call into the package goes through a module attribute (``gen.make_...``,
``core.run_mlsa``) so that the tracer's wrappers see it.  A workload's ``run``
is one unit: from instance generation to the last certificate.  ``check``
runs after the unit's clock stops and returns the output digest plus a list
of problems; a unit with any problem counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np

import mlsa.audit as audit
import mlsa.classification as classification
import mlsa.cli as cli
import mlsa.core as core
import mlsa.generators as gen
import mlsa.logistic as logistic

NUMERIC_TOL = 1e-9
REFERENCES = Path(__file__).with_name("references.json")


def unit_seed(seed: int, workload: str, unit: int) -> int:
    """64-bit input seed of one unit, a pure function of the run seed."""
    text = f"bench/{seed}/{workload}/{unit}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:32]


def _array_digest(output, certificates) -> str:
    """Bytes of per_level, medians, and each certificate's lhs and rhs."""
    bounds = np.array([[c.lhs, c.rhs] for c in certificates], dtype=np.float64)
    return _digest(
        np.ascontiguousarray(output.per_level, dtype=np.float64).tobytes(),
        np.ascontiguousarray(output.medians, dtype=np.float64).tobytes(),
        bounds.tobytes(),
    )


def _certificate_problems(certificates) -> list[str]:
    return [f"certificate {c.name} failed (slack {c.slack!r})" for c in certificates if not c.passed]


class ClsIntervals:
    """Criterion 03's chain on intervals-1d: 20,101 hypotheses, 255 levels at n=200."""

    name = "cls-intervals"
    descriptor = "intervals-1d"
    d = 2
    noise = 0.1

    def __init__(self, toy: bool = False) -> None:
        self.n = 40 if toy else 200
        self.params = {"descriptor": self.descriptor, "n": self.n, "noise": self.noise}

    def warmup(self) -> None:
        self._chain(np.random.default_rng(0), 30)

    def _chain(self, rng, n):
        loss = classification.zero_one_loss()
        grid = classification.classification_grid(self.d, n)
        inst = gen.make_classification_instance(self.descriptor, n, self.noise, rng)
        output = core.run_mlsa(inst.table, inst.sample, loss, grid, classification.MAJORITY_VOTE)
        growth = audit.grid_growth_audit(inst.table, inst.sample, loss, grid)
        bound = classification.verify_classification_bound(output, inst.table, inst.sample, self.d, n)
        majority = audit.verify_grid_majority_bound(output, growth, bound.components["erm_loss"])
        return inst, output, (bound, majority)

    def run(self, seed: int):
        return self._chain(np.random.default_rng(seed), self.n)

    def check(self, result) -> tuple[str, list[str]]:
        inst, output, certificates = result
        problems = _certificate_problems(certificates)
        labels = inst.sample.responses
        loo = float(np.mean(output.medians != labels))
        if loo != output.loo_error:
            problems.append(f"loo_error {output.loo_error!r} != recomputed {loo!r}")
        return _array_digest(output, certificates), problems


class LogisticMc:
    """Criterion 07's chain: n=50, d=2, r=R=1, noise 0, 2e5 pool draws."""

    name = "logistic-mc"
    d = 2
    r = R = 1.0

    def __init__(self, toy: bool = False) -> None:
        self.n = 20 if toy else 50
        self.draws = 20_000 if toy else 200_000
        self.params = {"n": self.n, "d": self.d, "r": self.r, "R": self.R, "noise": 0.0,
                       "pool_draws": self.draws}

    def warmup(self) -> None:
        self._chain(np.random.default_rng(0), 20, 20_000)

    def _chain(self, rng, n, draws):
        problem = gen.make_logistic_problem(n, self.d, self.r, self.R, rng, noise=0)
        mc = logistic.McConfig(samples_per_level=draws, seed=int(rng.integers(2**63)))
        run = logistic.run_mlsa_logistic(problem, mc)
        bound = logistic.verify_logistic_bound(run.output, run.geometry, problem, mc_slack=0.05)
        sandwich = logistic.crn_sandwich_report(run)
        return run.output, bound, sandwich

    def run(self, seed: int):
        return self._chain(np.random.default_rng(seed), self.n, self.draws)

    def check(self, result) -> tuple[str, list[str]]:
        output, bound, sandwich = result
        problems = _certificate_problems([bound])
        if sandwich.violations:
            problems.append(f"CRN sandwich: {sandwich.violations} of {sandwich.cells} cells violated")
        if not np.all((output.medians > 0) & (output.medians <= 1)):
            problems.append("median probability outside (0, 1]")
        loo = float(np.mean(-np.log(output.medians)))
        if abs(loo - output.loo_error) > NUMERIC_TOL:
            problems.append(f"loo_error {output.loo_error!r} != recomputed {loo!r}")
        return _array_digest(output, [bound]), problems


class CliSweep:
    """One ``mlsa sweep --threads 2`` over 4 tasks x 2 sizes, repeated instances."""

    name = "cli-sweep"
    threads = 2

    def __init__(self, toy: bool = False) -> None:
        self.sizes = (20, 30) if toy else (100, 200)
        self.instances = 1 if toy else 10
        self.class_size = 16 if toy else 256
        self.jobs = 4 * len(self.sizes) * self.instances
        self.params = {"tasks": "classification,regression,density,vaw",
                       "n": ",".join(map(str, self.sizes)), "class_size": self.class_size,
                       "space_size": 16, "noise": 0.1, "instances": self.instances,
                       "threads": self.threads, "jobs": self.jobs}
        self._count = 0

    def warmup(self) -> None:
        self.check(self._sweep("task = classification\nn = 30\nseed = 1\n", expect_jobs=1))

    def _config(self, seed: int) -> str:
        return (
            "task = classification, regression, density, vaw\n"
            f"n = {', '.join(map(str, self.sizes))}\n"
            f"class_size = {self.class_size}\nspace_size = 16\nnoise = 0.1\n"
            f"instances = {self.instances}\nseed = {seed}\n"
        )

    def _sweep(self, text: str, expect_jobs: int):
        self._count += 1
        out = Path(".bench_out") / f"sweep-{os.getpid()}-{self._count}"
        out.mkdir(parents=True, exist_ok=True)
        config = out / "sweep.cfg"
        config.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["sweep", "--config", str(config), "--out", str(out),
                             "--threads", str(self.threads)])
        return out, code, err.getvalue(), expect_jobs

    def run(self, seed: int):
        return self._sweep(self._config(seed), self.jobs)

    def check(self, result) -> tuple[str, list[str]]:
        out, code, err, jobs = result
        problems = [] if code == 0 else [f"mlsa sweep exited {code}: {err.strip()}"]
        csv = out / "results.csv"
        data = csv.read_bytes() if csv.exists() else b""
        rows = data.decode().strip().splitlines()[1:]
        if len(rows) != jobs:
            problems.append(f"results.csv has {len(rows)} rows, expected {jobs}")
        bad = [r.split(",")[0] for r in rows if float(r.split(",")[6]) < -NUMERIC_TOL]
        if bad:
            problems.append(f"negative slack in {bad}")
        if not (out / "report.txt").exists():
            problems.append("report.txt missing")
        shutil.rmtree(out)
        return _digest(data), problems


WORKLOADS = {w.name: w for w in (ClsIntervals, LogisticMc, CliSweep)}


def load_references(workload: str, toy: bool, seed: int) -> list[str]:
    """Reference digests of the first units of a run, or [] for an unrecorded seed."""
    table = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    return table.get(workload, {}).get("toy" if toy else "full", {}).get(str(seed), [])
