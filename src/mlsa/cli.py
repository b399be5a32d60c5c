"""Command-line front end: generate instances, run experiments, audit, report.

Usage examples:

    mlsa run   --task classification --seed 7 --out runs/c0
    mlsa run   --task logistic --seed 3 --out runs/l0 --set n=20 mc_samples=20000
    mlsa gen   --task density --seed 1 --out runs/gen0
    mlsa audit --task regression --seed 5 --out runs/a0
    mlsa sweep --config sweep.cfg --seed 11 --out runs/sweep0 --threads 4
    mlsa report runs/sweep0/results.csv --out summary.txt

Config files are plain text, one ``key = value`` per line, ``#`` comments.
In sweep configs a comma-separated value lists the points of a parameter grid
and the sweep runs the cartesian product.  Every run is a pure function of the
64-bit master seed: per-instance seeds are derived by hashing the component
path (task name, combo index, instance index) with SHA-256, so serial and
parallel executions produce identical results.  The flat CSV written next to
each report has the stable schema
``instance_id,n,d,loo,erm_per_n,bound,slack,rho_hat`` across all tasks;
task-specific detail lives in the structured report only.

``run``, ``audit`` and ``sweep`` share one job loop: every instance is a job,
``--threads`` sets the number of workers, and a job that raises is listed in
the report's ``[errors]`` section and on stderr while the other jobs' rows are
still written.  The workers are forked processes: a job is many small numpy
calls, and job threads would hold the interpreter lock between them.  They
take the jobs in chunks of consecutive jobs, about eight chunks per worker,
one pickle round trip per chunk.  Results come back in job order, so the
files are the same bits at any ``--threads``; a worker that dies loses only
the chunks whose results had not come back, and every job of those chunks
becomes an error.  Exit codes: 0 when every certificate passes, 1 when one fails
or a job raised, 2 on a configuration error (an unknown key, a value list
outside ``sweep``, a missing task or seed, ``1/n`` on a key other than
``eps``, an ``eps`` neither 1/n nor in ``[0, 0.5)``).
"""

import argparse
import concurrent.futures
import hashlib
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import audit as audit_mod
from . import classification as cls_mod
from . import density as den_mod
from . import generators as gen_mod
from . import linear as lin_mod
from . import logistic as log_mod
from . import regression as reg_mod
from .core import ToleranceGrid, run_mlsa

__all__ = ["ExperimentConfig", "run_experiment", "derive_seed", "main"]

CSV_HEADER = "instance_id,n,d,loo,erm_per_n,bound,slack,rho_hat"


def derive_seed(master: int, *parts) -> int:
    """Stable 64-bit sub-seed for a named component of a run."""
    text = f"{master}/" + "/".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    seed: int
    n: int = 50
    d: int = 1
    class_size: int = 8
    space_size: int = 8
    loss: str = "squared"
    M: float = 1.0
    r: float = 1.0
    R: float = 1.0
    eps: float = 0.0  # density smoothing; 0 disables, -1 means 1/n
    noise: float = 0.0
    generator: str = ""  # classification descriptor; default picked from d
    k_intervals: int = 2
    mc_samples: int = 20_000
    min_accepted: int = 100
    svd_tol: float = 0.0  # 0 = numerical-rank default for the vaw task
    grid_levels: int = 0  # 0 = task default; otherwise overrides the level count
    instances: int = 1
    threads: int = 1
    out: str = "."

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; choose from {tuple(TASKS)}")
        if self.instances < 1:
            raise ValueError("instances must be positive")
        if not (self.eps == -1.0 or 0.0 <= self.eps < 0.5):
            raise ValueError(f"eps = {self.eps!r}: the density smoothing takes 0 (none), "
                             "a weight below 0.5, or 1/n")

    @property
    def descriptor(self) -> str:
        if self.generator:
            return self.generator
        return {1: "thresholds-1d", 2: "intervals-1d", 4: "axis-rectangles-2d"}.get(
            self.d, "thresholds-1d"
        )


def _parse_scalar(key: str, raw: str, where: str):
    """One value of a config key, of the type ``ExperimentConfig`` annotates
    it with; ``1/n`` is -1.0, and only ``eps`` takes it.  ``where`` names its
    source in the error."""
    kind = {f.name: f.type for f in fields(ExperimentConfig)}.get(key)
    if kind is None:
        raise ValueError(f"{where}: unknown config key {key!r}")
    raw = raw.strip()
    if raw == "1/n":
        if key != "eps":
            raise ValueError(f"{where}: {key} = 1/n: only eps takes 1/n")
        return -1.0
    return kind(raw)


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; comma-separated values become lists."""
    out: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        values = [_parse_scalar(key, v, f"{path}:{lineno}") for v in raw.split(",")]
        out[key] = values if len(values) > 1 else values[0]
    return out


@dataclass
class InstanceResult:
    instance_id: str
    n: int
    d: int
    loo: float
    erm_per_n: float
    bound: float
    slack: float
    rho_hat: Optional[float]
    certificates: list = field(default_factory=list)
    sections: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates)

    def csv_row(self) -> str:
        rho = "" if self.rho_hat is None else repr(float(self.rho_hat))
        return ",".join(
            [
                self.instance_id,
                str(self.n),
                str(self.d),
                repr(float(self.loo)),
                repr(float(self.erm_per_n)),
                repr(float(self.bound)),
                repr(float(self.slack)),
                rho,
            ]
        )


def _grid(config: ExperimentConfig, grid: ToleranceGrid) -> ToleranceGrid:
    """The task's grid, or its first ``grid_levels`` multiples of the gap."""
    if config.grid_levels <= 0:
        return grid
    levels = grid.gap * np.arange(1, config.grid_levels + 1, dtype=float)
    return ToleranceGrid(levels=levels, gap=grid.gap)


def _fields(config, d, loo, erm, headline, certs, rho, sections) -> dict:
    """``InstanceResult`` fields whose CSV bound and slack are ``headline``'s."""
    return dict(n=config.n, d=d, loo=loo, erm_per_n=erm / config.n, bound=headline.rhs,
                slack=headline.slack, rho_hat=rho, certificates=certs, sections=sections)


def _finite_class(output, table, sample, loss, rule, seed: int, deep_audit: bool):
    """Growth audit and grid-majority certificate of a finite class.

    Returns the certificate, the deep checks' certificates (with
    ``deep_audit``, the aggregation rule's stability; else none), the good
    fraction of the growth audit and the ``growth-audit`` report section.
    """
    growth = audit_mod.grid_growth_audit(table, sample, loss, output.grid)
    cert = audit_mod.verify_grid_majority_bound(output, growth, output.erm_loss)
    checks = [audit_mod.check_aggregation_stability(
        rule, loss, table, sample, seed=derive_seed(seed, "agg-check")
    )] if deep_audit else []
    section = {
        "good_fraction": growth.good_fraction,
        "delta": growth.delta,
        "c_g": growth.c_g,
        "levels": len(growth.levels),
    }
    return cert, checks, growth.good_fraction, section


def _certify_classification(config: ExperimentConfig, inst, seed: int, deep_audit: bool) -> dict:
    d = cls_mod.descriptor_vc_dimension(config.descriptor, config.k_intervals)
    loss = cls_mod.zero_one_loss()
    grid = _grid(config, cls_mod.classification_grid(d, config.n))
    output = run_mlsa(inst.table, inst.sample, loss, grid, cls_mod.MAJORITY_VOTE)
    cert, checks, rho, growth = _finite_class(
        output, inst.table, inst.sample, loss, cls_mod.MAJORITY_VOTE, seed, deep_audit
    )
    certs = [cert]
    if config.grid_levels <= 0:
        certs.append(
            cls_mod.verify_classification_bound(output, inst.table, inst.sample, d, config.n)
        )
    instance = {
        "class_size": inst.table.n_hypotheses,
        "flip_fraction": inst.flip_fraction,
        "descriptor": config.descriptor,
    }
    return _fields(config, d, output.loo_error, output.erm_loss, certs[-1], certs + checks, rho,
                   {"instance": instance, "growth-audit": growth})


def _certify_regression(config: ExperimentConfig, inst, seed: int, deep_audit: bool) -> dict:
    loss = reg_mod.scale_loss(config.loss, config.M)
    grid = _grid(config, reg_mod.regression_grid(config.M, config.class_size))
    output = run_mlsa(inst.table, inst.sample, loss, grid, reg_mod.MEAN_AGGREGATE)
    cert, checks, rho, growth = _finite_class(
        output, inst.table, inst.sample, loss, reg_mod.MEAN_AGGREGATE, seed, deep_audit
    )
    certs = [cert]
    if config.grid_levels <= 0:
        certs.append(
            reg_mod.verify_regression_bound(output, inst.table, inst.sample, loss, config.M)
        )
    instance = {"class_size": config.class_size, "loss": loss.name}
    return _fields(config, 0, output.loo_error, output.erm_loss, certs[-1], certs + checks, rho,
                   {"instance": instance, "growth-audit": growth})


def _certify_density(config: ExperimentConfig, inst, seed: int, deep_audit: bool) -> dict:
    eps = 1.0 / config.n if config.eps == -1.0 else config.eps
    instance = {
        "class_size": config.class_size,
        "space_size": config.space_size,
        "log_ratio_bound": inst.dclass.log_ratio_bound,
    }
    if eps > 0:
        working = den_mod.smooth_class(inst.dclass, eps)
        output = den_mod.mlsa_for_density(working, inst.observations)
        certs = [
            den_mod.smoothing_inflation(inst.dclass, working, inst.observations, eps),
            den_mod.verify_smoothed_density(output, inst.dclass, inst.observations, eps),
        ]
        instance.update(eps=eps, smoothed_log_ratio_bound=working.log_ratio_bound)
    else:
        working = inst.dclass
        output = den_mod.mlsa_for_density(working, inst.observations)
        certs = [den_mod.verify_density_bound(output, working, inst.observations)]
    headline = certs[-1]
    sections = {"instance": instance}
    rho = None
    if working.n_densities >= 2:
        table, loss, sample = den_mod.log_loss_table(working, inst.observations)
        cert, checks, rho, sections["growth-audit"] = _finite_class(
            output, table, sample, loss, reg_mod.MEAN_AGGREGATE, seed, deep_audit
        )
        certs += [cert, *checks]
    erm = den_mod._erm_loss(working, np.asarray(inst.observations))
    return _fields(config, 0, output.loo_error, erm, headline, certs, rho, sections)


def _certify_logistic(config: ExperimentConfig, problem, seed: int, deep_audit: bool) -> dict:
    mc = log_mod.McConfig(
        samples_per_level=config.mc_samples,
        seed=derive_seed(seed, "mc"),
        min_accepted=config.min_accepted,
    )
    run = log_mod.run_mlsa_logistic(problem, mc)
    cert = log_mod.verify_logistic_bound(run.output, run.geometry, problem)
    sandwich = log_mod.crn_sandwich_report(run)
    # a violated cell fails the run like a failed bound, with its reason
    certs = [cert, audit_mod._no_violations("crn-sandwich", sandwich.violations,
                                            cells=sandwich.cells)]
    sections = {"geometry": log_mod.geometry_report(run.geometry, problem)}
    if deep_audit:
        certs += log_mod.verify_ellipsoid_containment(
            run.geometry, problem, mc, seed=derive_seed(seed, "containment")
        )
        certs.append(log_mod.verify_volume_lower_bound(
            run.geometry, problem, mc, seed=derive_seed(seed, "volume")
        ))
    return _fields(config, config.d, run.output.loo_error, run.output.erm_loss,
                   cert, certs, None, sections)


def _certify_vaw(config: ExperimentConfig, design, seed: int, deep_audit: bool) -> dict:
    X, y = design
    svd_tol = config.svd_tol if config.svd_tol > 0 else None
    result = lin_mod.fit_transductive_vaw(X, y, svd_tol=svd_tol)
    cert = lin_mod.vaw_certificate(result)
    certs = [cert]
    if deep_audit:
        certs.append(lin_mod.verify_pinv_identity(X, svd_tol=svd_tol))
    n = config.n
    return dict(n=n, d=config.d, loo=result.loo_sq_sum / n, erm_per_n=result.fit_sq_sum / n,
                bound=cert.rhs / n, slack=cert.slack / n, rho_hat=None, certificates=certs,
                sections={"instance": {"rank": result.rank, "m_sq": result.m_sq}})


@dataclass(frozen=True)
class Task:
    """The three steps of a task family, shared by every command but ``report``.

    ``generate(config, rng)`` draws an instance; ``files(instance)`` lists the
    ``(filename, array, fmt)`` triples ``mlsa gen`` writes; ``certify(config,
    instance, seed, deep_audit)`` runs the pipeline and returns the
    ``InstanceResult`` fields other than ``instance_id``.
    """

    generate: Callable
    files: Callable
    certify: Callable


#: ``savetxt`` format that writes every float64 so that it reads back exactly.
_REAL = "%.17g"

#: Task name -> its steps, in the order ``--task`` lists them.
TASKS = {
    "classification": Task(
        generate=lambda c, rng: gen_mod.make_classification_instance(
            c.descriptor, c.n, c.noise, rng, k=c.k_intervals
        ),
        files=lambda inst: [("covariates.txt", inst.covariates, _REAL),
                            ("labels.txt", inst.sample.responses, _REAL),
                            ("table.txt", inst.table.values, _REAL)],
        certify=_certify_classification,
    ),
    "regression": Task(
        generate=lambda c, rng: gen_mod.make_regression_instance(c.n, c.class_size, c.noise, rng),
        files=lambda inst: [("table.txt", inst.table.values, _REAL),
                            ("responses.txt", inst.sample.responses, _REAL)],
        certify=_certify_regression,
    ),
    "density": Task(
        generate=lambda c, rng: gen_mod.make_density_instance(
            c.class_size, c.space_size, c.n, rng
        ),
        files=lambda inst: [("densities.txt", inst.dclass.probs, _REAL),
                            ("observations.txt", inst.observations, "%d")],
        certify=_certify_density,
    ),
    "logistic": Task(
        generate=lambda c, rng: gen_mod.make_logistic_problem(
            c.n, c.d, c.r, c.R, rng, noise=c.noise
        ),
        files=lambda p: [("problem.txt", np.column_stack([p.covariates, p.labels]), _REAL)],
        certify=_certify_logistic,
    ),
    "vaw": Task(
        generate=lambda c, rng: gen_mod.make_linear_instance(
            c.n, c.d, rng, rank_deficient=c.noise > 0
        ),
        files=lambda design: [("design.txt", np.column_stack(design), _REAL)],
        certify=_certify_vaw,
    ),
}


def _generate(config: ExperimentConfig, instance_index: int):
    """The instance's derived seed and the instance drawn from it."""
    seed = derive_seed(config.seed, config.task, instance_index)
    rng = np.random.default_rng(derive_seed(seed, "generate"))
    return seed, TASKS[config.task].generate(config, rng)


def run_experiment(
    config: ExperimentConfig, instance_index: int = 0, deep_audit: bool = False
) -> InstanceResult:
    """Generate one instance from the derived seed and run its full pipeline."""
    seed, instance = _generate(config, instance_index)
    return InstanceResult(
        instance_id=f"{config.task}-{instance_index:04d}",
        **TASKS[config.task].certify(config, instance, seed, deep_audit),
    )


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return str(value)


def write_report(path: Path, config: ExperimentConfig, results, timings: dict, errors=()) -> None:
    lines = ["[config]"]
    for f in fields(ExperimentConfig):
        lines.append(f"{f.name} = {_format_value(getattr(config, f.name))}")
    if errors:
        lines += ["", "[errors]"] + [f"{job} = {error}" for job, error in errors]
    for res in results:
        lines.append("")
        lines.append(f"[run {res.instance_id}]")
        lines.append(f"loo = {repr(res.loo)}")
        lines.append(f"erm_per_n = {repr(res.erm_per_n)}")
        lines.append(f"passed = {res.passed}")
        for section, payload in res.sections.items():
            lines.append(f"[run {res.instance_id} / {section}]")
            for key, value in payload.items():
                lines.append(f"{key} = {_format_value(value)}")
        for cert in res.certificates:
            lines.append(f"[run {res.instance_id} / certificate {cert.name}]")
            lines.append(f"lhs = {repr(cert.lhs)}")
            lines.append(f"rhs = {repr(cert.rhs)}")
            lines.append(f"slack = {repr(cert.slack)}")
            lines.append(f"passed = {cert.passed}")
            if not cert.passed:
                lines.append(f"reason = {cert.reason}")
            for key, value in cert.components.items():
                lines.append(f"{key} = {_format_value(value)}")
    lines.append("")
    lines.append("[timing]")
    for key, value in timings.items():
        lines.append(f"{key} = {value:.3f}")
    path.write_text("\n".join(lines) + "\n")


def write_csv(path: Path, results) -> None:
    rows = [CSV_HEADER] + [res.csv_row() for res in results]
    path.write_text("\n".join(rows) + "\n")


def _expand_sweep(params: dict) -> list[dict]:
    """Cartesian product over the list-valued parameters, in file order."""
    combos = [dict()]
    for key, value in params.items():
        options = value if isinstance(value, list) else [value]
        combos = [dict(combo, **{key: option}) for combo in combos for option in options]
    return combos


def _build_config(args, overrides: dict, sweep: bool = False) -> tuple[ExperimentConfig, dict]:
    params: dict = {}
    if args.config:
        params.update(parse_config_file(args.config))
    params.update(overrides)
    if getattr(args, "task", None):
        params["task"] = args.task
    if args.seed is not None:
        params["seed"] = args.seed
    if getattr(args, "threads", None):
        params["threads"] = args.threads
    if args.out:
        params["out"] = args.out
    if "task" not in params:
        raise ValueError("a task is required (flag --task or config key)")
    if "seed" not in params:
        raise ValueError("a seed is required (flag --seed or config key); "
                         "runs never use ambient randomness")
    listed = [k for k, v in params.items() if isinstance(v, list)]
    if listed and not sweep:
        raise ValueError(
            f"config keys with several values: {', '.join(listed)}; "
            "only `mlsa sweep` runs a grid of values"
        )
    scalar = {k: (v[0] if isinstance(v, list) else v) for k, v in params.items()}
    return ExperimentConfig(**scalar), params


def _cmd_gen(args) -> int:
    config, _ = _build_config(args, _parse_sets(args.set))
    if config.instances != 1:
        raise ValueError(
            f"instances = {config.instances}: `mlsa gen` writes one instance; "
            "drop the key or set it to 1"
        )
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    _, instance = _generate(config, 0)
    for name, array, fmt in TASKS[config.task].files(instance):
        np.savetxt(out / name, array, fmt=fmt)
    print(f"instance files written to {out}")
    return 0


def _error(job, exc: BaseException) -> tuple[str, str]:
    """The ``[errors]`` entry of a job that raised or whose worker died."""
    index, cfg = job
    return f"{cfg.task}-{index:04d}", f"{type(exc).__name__}: {exc}"


def _job(job, deep_audit: bool):
    """One ``(index, config)`` job: its ``InstanceResult``, or its error entry.

    At module level, so that a worker process receives it by name.
    """
    index, cfg = job
    try:
        return run_experiment(cfg, instance_index=index, deep_audit=deep_audit)
    except Exception as exc:  # one job's error must not lose the others' rows
        return _error(job, exc)


#: About this many chunks of jobs per worker process (``_run_jobs``).
_CHUNKS_PER_WORKER = 8


def _jobs(chunk: list, deep_audit: bool) -> list:
    """The outcomes of a chunk of consecutive jobs, in job order: one task of a
    worker process."""
    return [_job(job, deep_audit) for job in chunk]


def _run_jobs(jobs: list, deep_audit: bool, threads: int) -> list:
    """Every job's outcome, in job order, on ``min(threads, jobs)`` forked
    worker processes; serial with one worker or where fork is missing.

    The jobs go to the workers in chunks of ``ceil(jobs /
    (_CHUNKS_PER_WORKER * workers))`` consecutive jobs: a chunk is one task,
    so its jobs cost one pickle and one pipe round trip together, and the
    chunks are small enough that the workers finish close together.  Each chunk's future is
    read on its own: when a worker dies, the pool fails every chunk whose
    result has not come back, and each job of those chunks becomes an error
    entry.  Fork, not spawn: a spawned worker imports numpy and ``mlsa``
    again, about 0.25 s, as long as a whole 80-job sweep.  No thread of the
    parent needs to exist in the child: ``core._for_each_block`` joins its
    threads before it returns.
    """
    workers = min(threads, len(jobs))
    if workers > 1:
        import multiprocessing  # 7 ms of imports, paid only by a run that forks

        if "fork" in multiprocessing.get_all_start_methods():
            size = -(-len(jobs) // (_CHUNKS_PER_WORKER * workers))
            chunks = [jobs[start:start + size] for start in range(0, len(jobs), size)]
            context = multiprocessing.get_context("fork")
            with concurrent.futures.ProcessPoolExecutor(workers, mp_context=context) as pool:
                futures = [pool.submit(_jobs, chunk, deep_audit) for chunk in chunks]
            outcomes = []
            for chunk, future in zip(chunks, futures):
                try:
                    outcomes += future.result()
                except Exception as exc:  # its worker died, or its results could not come back
                    outcomes += [_error(job, exc) for job in chunk]
            return outcomes
    return _jobs(jobs, deep_audit)


def _cmd_run(args) -> int:
    """``run``, ``audit`` and ``sweep``: one job per instance of every combo.

    ``run`` and ``audit`` are the one-combo case; ``audit`` adds the deep
    checks.  A job that raises is reported, and the others' rows still written.
    """
    config, params = _build_config(args, _parse_sets(args.set), sweep=args.command == "sweep")
    combos = [ExperimentConfig(**combo) for combo in _expand_sweep(params)]
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = list(enumerate(cfg for cfg in combos for _ in range(cfg.instances)))
    t0 = time.perf_counter()
    outcomes = _run_jobs(jobs, args.command == "audit", config.threads)
    elapsed = time.perf_counter() - t0
    results = [o for o in outcomes if isinstance(o, InstanceResult)]
    errors = [o for o in outcomes if not isinstance(o, InstanceResult)]
    write_report(out / "report.txt", config, results, {"total_s": elapsed}, errors)
    write_csv(out / "results.csv", results)
    failed = sum(not r.passed for r in results)
    for res in results:
        bad = [c for c in res.certificates if not c.passed]
        why = f" ({bad[0].name}: {bad[0].reason})" if bad else ""
        status = "FAIL" if bad else "PASS"
        print(f"{status} {res.instance_id} loo={res.loo:.6g} slack={res.slack:.6g}{why}")
    print(f"{len(results)} runs, {failed} failed, {len(errors)} errors, {elapsed:.2f}s")
    for job, error in errors:
        print(f"error {job}: {error}", file=sys.stderr)
    return 1 if failed or errors else 0


def _cmd_report(args) -> int:
    rows = []
    for path in args.csvs:
        lines = Path(path).read_text().strip().splitlines()
        if lines and lines[0] == CSV_HEADER:
            lines = lines[1:]
        rows.extend(line.split(",") for line in lines if line)
    by_task: dict[str, list] = {}
    for row in rows:
        task = row[0].rsplit("-", 1)[0]
        by_task.setdefault(task, []).append(row)
    lines = [f"{'task':<16}{'runs':>6}{'fail':>6}{'max_loo':>12}{'min_slack':>12}{'min_rho':>9}"]
    failures = 0
    for task in sorted(by_task):
        entries = by_task[task]
        loos = [float(r[3]) for r in entries]
        slacks = [float(r[6]) for r in entries]
        rhos = [float(r[7]) for r in entries if r[7]]
        fails = sum(not (math.isfinite(s) and s >= -1e-9) for s in slacks)
        failures += fails
        # np.max/np.min propagate a NaN from any row; Python's max/min skip it
        rho_txt = f"{np.min(rhos):9.4f}" if rhos else "        -"
        lines.append(
            f"{task:<16}{len(entries):>6}{fails:>6}{np.max(loos):>12.5f}"
            f"{np.min(slacks):>12.5f}{rho_txt}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 1 if failures else 0


def _parse_sets(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        overrides[key.strip()] = _parse_scalar(key.strip(), raw, "--set")
    return overrides


def _add_common(parser, with_task=True):
    if with_task:
        parser.add_argument("--task", choices=TASKS)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="64-bit master seed (mandatory)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--threads", type=int, help="parallel instance workers")
    parser.add_argument(
        "--set", nargs="*", metavar="KEY=VALUE", help="config overrides"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mlsa", description="median of level-set aggregation experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("gen", help="write a synthetic instance to disk"))
    _add_common(sub.add_parser("run", help="generate, run, certify, report"))
    _add_common(sub.add_parser("audit", help="run plus the full audit battery"))
    _add_common(sub.add_parser("sweep", help="cartesian parameter grid of runs"))
    rep = sub.add_parser("report", help="aggregate result CSVs into a summary")
    rep.add_argument("csvs", nargs="+")
    rep.add_argument("--out")
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_run(args)
    except (ValueError, RuntimeError, IndexError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
