"""mlsa benchmark: one workload per invocation, measured in fresh processes.

    python3 bench/run.py --workload cls-intervals --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
``src`` there, with no install step.  The workload runs in a child process
with BLAS pinned to one thread.  ``setup_s`` is the median over several fresh
processes of the time from process start through ``import mlsa`` and one small
warm-up instance.  Between the worker's units this process times a reference
kernel that runs no mlsa code; ``latency_p50_s`` and ``instances_per_s`` are
scaled by how much slower than its reference time the kernel ran, which takes
out the minute-long slowdowns of a shared host (the measured values are
printed beside them).  With ``--trace 0`` the last line of standard output is the
JSON result with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run, whose spans are written to ``.bench_out``.
See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
SETUP_PROBES = 8  # extra set-up-only processes; the measured run adds one more
WORKER_GRACE_S = 150  # beyond --seconds, before a hung worker is killed
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
KERNEL_SHARE = 0.1  # kernel time after a unit, as a share of the unit's latency
#: The reference kernel's median time on the 2-vCPU Xeon host of bench/README.md.
KERNEL_REF_S = 0.024


class ReferenceKernel:
    """Interpreter, sort and memory-streaming work in the mix the workloads use.

    It runs no mlsa code, so its time changes only with the host: when other
    tenants of a shared machine load its memory system, it slows as the
    workloads do.  It runs in this process, so its arrays stay out of the
    worker's peak resident memory.
    """

    def __init__(self) -> None:
        # Imported here, with BLAS pinned first, so that importing this module
        # for BLAS_PIN (record_references.py) does not load numpy unpinned.
        os.environ.update(BLAS_PIN)
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.square = rng.random((400, 400))
        self.stream = rng.random(2_000_000)
        self.bits = rng.integers(0, 2, (2000, 200), dtype=np.int8)

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        np.sort(self.square, axis=0)
        np.sort(self.square, axis=1)
        scaled = self.stream * 1.0001 + 0.5
        scaled *= scaled
        np.cumsum(self.bits, axis=1)
        return time.perf_counter() - t0


def _worker(args, *extra) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with the seconds it took to print READY."""
    env = dict(os.environ, PYTHONPATH="src", **BLAS_PIN)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.toy:
        cmd.append("--toy")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        rest, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s and was killed")
    if rest:
        sys.stderr.write(rest)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")


def _serve(proc: subprocess.Popen, timeout: float, kernel: ReferenceKernel) -> list[list[float]]:
    """Time the kernel each time the worker waits between units, until it exits.

    Returns the kernel times taken after each unit, one list per unit.
    """
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    times = []
    try:
        for line in proc.stdout:
            if not line.startswith("UNIT "):
                sys.stderr.write(line)
                continue
            budget, after_unit = KERNEL_SHARE * float(line.split()[1]), []
            while not after_unit or sum(after_unit) < budget:
                after_unit.append(kernel())
            times.append(after_unit)
            try:
                proc.stdin.write("\n")
                proc.stdin.flush()
            except BrokenPipeError:
                break
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode} (killed after {timeout:.0f} s "
                           "if negative)")
    return times


def measure(args) -> dict:
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path, spans_path = OUT / f"result-{tag}.json", OUT / f"spans-{tag}.json"
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup = _worker(args, "--setup-only")
            _finish(proc, WORKER_GRACE_S)
            setups.append(setup)
    kernel = ReferenceKernel()
    kernel()  # the first call pays for page faults and lazy set-up
    proc, setup = _worker(args, "--result", str(result_path), "--spans", str(spans_path))
    setups.append(setup)
    kernel_s = _serve(proc, args.seconds + WORKER_GRACE_S, kernel)
    report = json.loads(result_path.read_text())
    report["setup_samples_s"] = setups
    flat = [t for after_unit in kernel_s for t in after_unit]
    slowdown = statistics.median(flat) / KERNEL_REF_S
    report["host"] = {"kernel_median_s": statistics.median(flat), "kernel_runs": len(flat),
                      "kernel_ref_s": KERNEL_REF_S, "slowdown": slowdown,
                      "kernel_s_after_unit": kernel_s}
    if not args.trace:
        for name, scale in (("latency_p50_s", 1 / slowdown), ("instances_per_s", slowdown)):
            metric = report["metrics"][name]
            metric["measured"] = metric["value"]
            metric["value"] = metric["measured"] * scale
        report["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                                        "samples": len(setups)}
    report["spans_file"] = str(spans_path) if args.trace else None
    result_path.write_text(json.dumps(report))
    return report


def print_report(report: dict) -> None:
    units = report["units"]
    failed = [u for u in units if not u["ok"]]
    digests = {k: sum(u["digest"] == k for u in units) for k in ("match", "mismatch", "skipped")}
    print(f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}  "
          f"trace {report['trace']}  units {len(units)}  elapsed {report['elapsed_s']:.3f} s")
    print("machine " + json.dumps(report["machine"]))
    print("settings " + json.dumps(report["settings"]))
    host = report["host"]
    print(f"host: reference kernel median {host['kernel_median_s']:.5f} s over "
          f"{host['kernel_runs']} runs, {host['slowdown']:.4f} x its reference "
          f"{host['kernel_ref_s']} s")
    if report["trace"]:
        print(f"per-layer metrics, median over {report['traced_units']} traced units:")
        for name, m in report["per_layer"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        busy = sum(value for _, value in report["self_table"])
        print(f"self time per traced unit (mean of {report['traced_units']}): unit wall "
              f"{report['unit_wall_s']:.4f} s, sum of self times {busy:.4f} s:")
        for name, value in report["self_table"]:
            label = "(uncovered by any layer span)" if name == "unit" else name
            print(f"  {label:<42} {value:10.4f} s  {100 * value / busy:6.2f} %")
        print(f"  layer coverage {100 * report['coverage']:.2f} % of unit wall; "
              f"max (sum of self times - unit wall) {report['max_sum_minus_wall_s']:.2e} s "
              "(positive only where pool threads overlap)")
        print(f"spans written to {report['spans_file']}")
    else:
        for name, m in report["metrics"].items():
            extra = ""
            if "measured" in m:
                extra = f"  measured {m['measured']:.6g}"
            if m.get("percentiles"):
                extra += "  measured " + " ".join(f"{k}={v:.6g}" for k, v in m["percentiles"].items())
            print(f"  {name} = {m['value']:.6g} {m['unit']} (samples={m['samples']}){extra}")
    print(f"  failed_frac = {len(failed)}/{len(units)} = {len(failed) / len(units):.4g}")
    if digests["skipped"]:
        covered = digests["match"] + digests["mismatch"]
        print(f"  digest check SKIPPED for {digests['skipped']} units: the references for seed "
              f"{report['seed']} cover {covered} units")
    print(f"  digests: {digests['match']} match, {digests['mismatch']} mismatch, "
          f"{digests['skipped']} skipped")
    for unit in failed:
        print(f"  FAILED unit {unit['unit']}: {'; '.join(unit['problems'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cls-intervals", "logistic-mc", "cli-sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the self-test")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="alter every reference digest, to show the gate can fail")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not Path("src/mlsa/__init__.py").is_file():
        print("error: run from the root of an mlsa checkout (src/mlsa not found)", file=sys.stderr)
        return 2
    try:
        report = measure(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    metrics = report["per_layer"] if args.trace else report["metrics"]
    failed = sum(not u["ok"] for u in report["units"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(report["units"]),
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
