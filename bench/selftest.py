"""Self-test of the benchmark itself, at toy sizes (about a minute).

    python3 bench/selftest.py

Run from the root of a checkout.  For every workload it checks that the
untraced and the traced run print every metric of BENCHMARK.json by name with
its unit and end in a result line with exactly those metrics, that the toy
references match, and that a perturbed reference digest is reported as a
failed unit.  Last, it checks that the benchmark refuses to run, without a
result line, in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ".") -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "0", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_run(workload: str, trace: int, problems: list[str]) -> None:
    code, lines = bench("--workload", workload, "--toy", "--trace", str(trace))
    where = f"{workload} trace {trace}"
    if code != 0 or not lines:
        problems.append(f"{where}: exit {code}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    specs = SPEC["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in specs}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    text = "\n".join(lines[:-1])
    for m in specs:
        got = result["metrics"].get(m["name"], {}).get("unit")
        if got != m["unit"]:
            problems.append(f"{where}: {m['name']} has unit {got}, expected {m['unit']}")
        if not any(line.strip().startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines[:-1]):
            problems.append(f"{where}: {m['name']} not printed with its unit")
    digests = re.search(r"digests: (\d+) match, (\d+) mismatch", text)
    if not digests or digests[1] == "0" or digests[2] != "0":
        problems.append(f"{where}: toy references did not match")


def check_perturbed(workload: str, problems: list[str]) -> None:
    code, lines = bench("--workload", workload, "--toy", "--perturb-reference")
    result = json.loads(lines[-1]) if code == 0 and lines else None
    if result is None or result["correct"] or result["failed"] < 1:
        problems.append(f"{workload}: a perturbed reference digest was not reported as a failure")
    elif not any("FAILED unit" in line and "digest" in line for line in lines):
        problems.append(f"{workload}: the digest failure was not named in the output")


def check_bare_directory(problems: list[str]) -> None:
    bare = Path(".bench_out/selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", WORKLOADS[0], cwd=str(bare))
    shutil.rmtree(bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"bare directory: exit {code}, stdout {lines[-1:] if lines else []}")


def main() -> int:
    problems: list[str] = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, problems)
        check_perturbed(workload, problems)
        print(f"{workload}: checked", flush=True)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
