"""One workload in a fresh process: import, warm up, then a timed closed loop.

Started by ``run.py`` with ``PYTHONPATH=src`` and BLAS pinned to one thread.
It prints ``READY`` once ``import mlsa`` and one small warm-up instance are
done (the parent's clock for ``setup_s`` stops there), then runs units in a
closed loop for ``--seconds`` and writes everything it measured to ``--result``.
After each unit it prints ``UNIT <latency>`` and waits for a line on standard
input while the parent times its reference kernel; that wait is left out of
the elapsed time.
With ``--trace 1`` every other unit runs with the tracer installed, so the
tracing overhead is measured against untraced units of the same run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import mlsa

import tracer as tracing
import workloads

BLAS_PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_info() -> dict:
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_pin": {v: os.environ.get(v) for v in BLAS_PIN_VARS},
    }


def peak_rss_bytes() -> int:
    """Peak resident memory of this process's own program, from ``VmHWM``.

    ``ru_maxrss`` is kept across ``exec`` and so also counts the parent's
    resident memory at the moment it started this process; it is the fallback
    where ``/proc`` is missing.
    """
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def tail_percentile(latencies: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it, if any."""
    ordered = sorted(latencies)
    beyond = len(ordered) - 10
    if beyond < 10:
        return {}
    return {f"p{100 * beyond // len(ordered)}": ordered[beyond - 1]}


def wait_for_parent(latency: float) -> float:
    """Hand the CPU to the parent for its reference kernel; return the seconds waited."""
    t0 = time.perf_counter()
    print(f"UNIT {latency!r}", flush=True)
    sys.stdin.readline()
    return time.perf_counter() - t0


def run_units(workload, args, tracer) -> tuple[list[dict], float]:
    references = workloads.load_references(workload.name, args.toy, args.seed)
    if args.perturb_reference:
        references = [ref[:-1] + ("0" if ref[-1] != "0" else "1") for ref in references]
    units = []
    min_units = 2 if tracer else 1
    start = time.perf_counter()
    deadline = start + args.seconds
    waited = 0.0
    k = 0
    while k < min_units or time.perf_counter() < deadline:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
            tracer.unit = k
            root = tracer.open("unit")
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            result, error = workload.run(workloads.unit_seed(args.seed, workload.name, k)), None
        except Exception as exc:  # a unit that raises is a failed unit; keep measuring
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1, cpu1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.close(root)
            tracer.uninstall()
        unit = {"unit": k, "latency_s": t1 - t0, "cpu_per_wall": (cpu1 - cpu0) / (t1 - t0),
                "traced": traced, "problems": [error] if error else [], "digest": "skipped"}
        if result is not None:
            digest, problems = workload.check(result)
            unit["problems"] += problems
            if k < len(references):
                unit["digest"] = "match" if digest == references[k] else "mismatch"
                if digest != references[k]:
                    unit["problems"].append(f"digest {digest} != reference {references[k]}")
        del result  # release the unit's arrays before the next unit allocates
        unit["ok"] = not unit["problems"]
        units.append(unit)
        waited += wait_for_parent(unit["latency_s"])
        k += 1
    return units, time.perf_counter() - start - waited


def end_to_end(units: list[dict], elapsed: float) -> dict:
    latencies = [u["latency_s"] for u in units]
    passed = sum(u["ok"] for u in units)
    return {
        "instances_per_s": {"value": passed / elapsed, "unit": "1/s", "samples": len(units)},
        "latency_p50_s": {"value": statistics.median(latencies), "unit": "s",
                          "samples": len(units), "percentiles": tail_percentile(latencies)},
        "peak_rss_mb": {"value": peak_rss_bytes() / 1e6,
                        "unit": "MB", "samples": 1},
    }


def traced_metrics(units: list[dict], tracer) -> dict:
    profiles = tracing.unit_profiles(tracer.spans)
    for unit in units:
        if unit["traced"]:
            profiles[unit["unit"]]["cpu_per_wall"] = unit["cpu_per_wall"]
    metrics = tracing.per_layer_metrics(profiles)
    traced = statistics.median(u["latency_s"] for u in units if u["traced"])
    plain = statistics.median(u["latency_s"] for u in units if not u["traced"])
    metrics["trace.overhead_frac"] = {"value": traced / plain - 1.0, "unit": "ratio"}
    walls = [p["incl"]["unit"] for p in profiles.values()]
    uncovered = [p["self"]["unit"] for p in profiles.values()]
    self_sums = [sum(p["self"].values()) for p in profiles.values()]
    return {
        "per_layer": metrics,
        "self_table": tracing.self_time_table(profiles),
        "unit_wall_s": statistics.mean(walls),
        "coverage": 1.0 - sum(uncovered) / sum(walls),
        "max_sum_minus_wall_s": max(s - w for s, w in zip(self_sums, walls)),
        "traced_units": len(profiles),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    source = Path("src").resolve()
    if source not in Path(mlsa.__file__).resolve().parents:
        print(f"mlsa was imported from {mlsa.__file__}, not from {source}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](toy=args.toy)
    workload.warmup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    units, elapsed = run_units(workload, args, tracer)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "settings": workload.params,
        "machine": machine_info(),
        "elapsed_s": elapsed,
        "units": units,
    }
    if tracer is None:
        report["metrics"] = end_to_end(units, elapsed)
    else:
        report.update(traced_metrics(units, tracer))
        Path(args.spans).write_text(json.dumps(
            {key: report[key] for key in ("workload", "seed", "settings", "machine")}
            | {"spans": tracer.spans}
        ))
    Path(args.result).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
