"""Generators and the command-line harness."""

import concurrent.futures
import ctypes
import dataclasses
import hashlib
import math
import multiprocessing
import os
import resource
import threading
import time

import numpy as np
import pytest

import mlsa.audit as audit_module
import mlsa.cli as cli_module
import mlsa.core as core_module
import mlsa.linear as linear_module
import mlsa.logistic as logistic_module
from mlsa.audit import BoundCertificate
from mlsa.cli import (
    CSV_HEADER,
    ExperimentConfig,
    InstanceResult,
    _generate,
    derive_seed,
    main,
    parse_config_file,
    run_experiment,
    write_report,
)
from mlsa.classification import zero_one_loss
from mlsa.core import empirical_loss
from mlsa.generators import (
    make_classification_instance,
    make_density_instance,
    make_logistic_problem,
    make_regression_instance,
)


# ----------------------------------------------------------------- generators


def test_derive_seed_is_stable_and_component_sensitive():
    assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)
    assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)
    assert derive_seed(7, "a") != derive_seed(8, "a")


def test_generators_deterministic_under_seed():
    a = make_classification_instance("thresholds-1d", 25, 0.2, np.random.default_rng(3))
    b = make_classification_instance("thresholds-1d", 25, 0.2, np.random.default_rng(3))
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(a.sample.responses, b.sample.responses)
    assert np.array_equal(a.table.values, b.table.values)


def test_noise_free_classification_is_realizable():
    inst = make_classification_instance("intervals-1d", 30, 0.0, np.random.default_rng(4))
    loss = zero_one_loss()
    best = min(
        empirical_loss(inst.table, inst.sample, loss, j)
        for j in range(inst.table.n_hypotheses)
    )
    assert best == 0.0


def test_flip_fraction_tracks_noise_level():
    inst = make_classification_instance(
        "thresholds-1d", 400, 0.5, np.random.default_rng(5)
    )
    stderr = math.sqrt(0.25 / 400)
    assert abs(inst.flip_fraction - 0.5) <= 3 * stderr


def test_regression_instance_lives_in_unit_interval():
    inst = make_regression_instance(40, 8, 0.3, np.random.default_rng(6))
    assert inst.table.values.min() >= 0.0 and inst.table.values.max() <= 1.0
    assert inst.sample.responses.min() >= 0.0 and inst.sample.responses.max() <= 1.0


def test_density_instance_rows_are_densities():
    inst = make_density_instance(4, 8, 30, np.random.default_rng(7))
    assert np.allclose(inst.dclass.probs.sum(axis=1), 1.0)
    assert math.isfinite(inst.dclass.log_ratio_bound)
    assert inst.observations.min() >= 0 and inst.observations.max() < 8


def test_logistic_problem_respects_norm_bound():
    problem = make_logistic_problem(60, 3, 1.0, 0.8, np.random.default_rng(8))
    assert np.all(np.linalg.norm(problem.covariates, axis=1) <= 0.8 + 1e-12)
    assert set(np.unique(problem.labels)) <= {-1.0, 1.0}


def test_logistic_separable_when_noise_zero():
    problem = make_logistic_problem(40, 2, 1.0, 1.0, np.random.default_rng(9), noise=0)
    # recover the planted direction: labels match the sign against it
    from mlsa.logistic import fit_erm, per_sample_losses

    theta = fit_erm(problem)
    assert float(per_sample_losses(problem, theta[None, :]).sum()) / 40 < math.log(2)


# --------------------------------------------------------------------- config


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        """
        # sweep over sizes
        task = regression
        n = 50, 100
        class_size = 8
        loss = squared
        eps = 1/n
        seed = 11
        """
    )
    parsed = parse_config_file(cfg)
    assert parsed["task"] == "regression"
    assert parsed["n"] == [50, 100]
    assert parsed["class_size"] == 8
    assert parsed["eps"] == -1.0
    assert parsed["seed"] == 11


def test_every_config_key_parses_to_its_annotated_type(tmp_path):
    values = {int: "3", float: "0.5", str: "abc"}
    keys = dataclasses.fields(ExperimentConfig)
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{f.name} = {values[f.type]}\n" for f in keys))
    parsed = parse_config_file(cfg)
    for f in keys:
        assert type(parsed[f.name]) is f.type
        assert parsed[f.name] == f.type(values[f.type])
    # eps reads 1/n as -1.0, which the density task takes for 1/n
    cfg.write_text("eps = 1/n\n")
    assert parse_config_file(cfg) == {"eps": -1.0}


def test_parse_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("task = regression\nwat = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_file(cfg)


def test_parse_config_refuses_a_key_on_two_lines(tmp_path):
    # the last of the two values used to be kept without a word
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("n = 20\ntask = vaw\nn = 30, 40\n")
    with pytest.raises(ValueError, match=f"n is given twice: by {cfg}:1 and by {cfg}:3"):
        parse_config_file(cfg)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="unknown task"):
        ExperimentConfig(task="nope", seed=1)


@pytest.mark.parametrize("task", ["density", "vaw"])
def test_experiment_config_takes_eps_of_zero_below_a_half_or_the_one_over_n_sentinel(task):
    # eps is 0, or 1/n below 0.5: the sentinel -1, or a value within 1e-12
    # relative of 1/n, the only weight the smoothed certificate is stated for
    taken = [(20, 0.0), (1, 0.0), (20, -1.0), (3, -1.0), (20, 0.05), (3, 1 / 3),
             (3, 0.3333333333333333), (20, 0.05 * (1 + 1e-13))]
    for n, eps in taken:
        assert ExperimentConfig(task=task, seed=1, n=n, eps=eps).eps == eps
    refused = [(20, 0.25), (20, 0.4999), (20, 0.05 * (1 + 1e-11)), (2, -1.0), (2, 0.5),
               (1, 1.0), (20, -0.5), (20, -1e-12), (20, 0.5), (20, 1.0), (20, math.inf),
               (20, math.nan)]
    for n, eps in refused:
        with pytest.raises(ValueError, match="^eps = "):
            ExperimentConfig(task=task, seed=1, n=n, eps=eps)


def test_experiment_config_takes_the_ends_of_each_range_and_refuses_nan():
    edges = dict(noise=1.0, M=1e-300, r=1e-300, R=1e-300, n=1, d=1, class_size=1,
                 space_size=1, k_intervals=1, instances=1, threads=1, mc_samples=100)
    config = ExperimentConfig(task="logistic", seed=1, **edges)
    assert {key: getattr(config, key) for key in edges} == edges
    assert ExperimentConfig(task="logistic", seed=1, noise=0.0).noise == 0.0
    for key in ("noise", "M", "r", "R"):
        with pytest.raises(ValueError, match=f"^{key} = nan: "):
            ExperimentConfig(task="logistic", seed=1, **{key: math.nan})
    for key in ("M", "r", "R"):
        with pytest.raises(ValueError, match=f"^{key} = inf: "):
            ExperimentConfig(task="regression", seed=1, **{key: math.inf})


def test_a_generator_names_the_classification_family_whatever_d_is():
    named = ExperimentConfig(task="classification", seed=1, d=3, generator="unions-of-k-intervals")
    assert named.descriptor == "unions-of-k-intervals"
    assert ExperimentConfig(task="logistic", seed=1, d=3).d == 3  # only classification reads d so


def test_parse_config_takes_one_over_n_for_eps_only(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("task = regression\nnoise = 1/n\n")
    with pytest.raises(ValueError, match=r"bad.cfg:2: noise = 1/n: only eps takes 1/n"):
        parse_config_file(cfg)


# ------------------------------------------------------------------- run / cli


def test_run_experiment_is_deterministic_per_seed():
    config = ExperimentConfig(task="classification", seed=21, n=30, noise=0.1)
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.csv_row() == second.csv_row()
    other = run_experiment(ExperimentConfig(task="classification", seed=22, n=30, noise=0.1))
    assert other.csv_row() != first.csv_row()


@pytest.mark.parametrize(
    "overrides",
    [
        {"task": "classification", "d": 1},
        {"task": "classification", "d": 2},
        {"task": "regression"},
        {"task": "density"},
        {"task": "density", "eps": -1.0},
    ],
    ids=["classification-d1", "classification-d2", "regression", "density", "density-smoothed"],
)
def test_finite_class_job_builds_one_loss_matrix(loss_matrix_calls, overrides):
    # the run and the growth audit share one evaluation, every certificate
    # reads the run's ERM total, and the stability check of `mlsa audit`
    # evaluates each trial's row and subset alone
    for deep_audit in (False, True):
        loss_matrix_calls.clear()
        run_experiment(ExperimentConfig(seed=13, n=30, **overrides), deep_audit=deep_audit)
        assert len(loss_matrix_calls) == 1, deep_audit


#: sha256 of the results.csv that `mlsa run --seed 1` writes.  Fixed seeds
#: give byte-identical results, on every SIMD path numpy dispatches to: these
#: digests are the same with its AVX-512 and AVX2 kernels disabled.  The
#: logistic task is left out, since np.exp rounds differently without AVX-512.
#: The vaw digest also depends on the kernel OpenBLAS selects for the CPU,
#: which NPY_DISABLE_CPU_FEATURES does not control: its fit's last digits
#: match under OPENBLAS_CORETYPE=SkylakeX but not Haswell or Zen.
RESULTS_GOLDEN = {
    "classification d=1": "5452f77dd29e593895b858c7eae5a3819c272646b8eafc37d8afd3c41b91f332",
    "classification d=2": "aed83707dfd9d01b21f005884a2add5e37fc65c1951b74a503fad54d8cd0d097",
    "classification d=4 n=30": "71680541902f05455afaa4e51d35d1946bebd46ffa5deb42ad8a97bdeb9fbf77",
    "regression": "7c8d61845e8c8894d103c7853b97939c4ef2f58e4538180b2aedcb7464648be8",
    "density eps=0": "9ca6fd62c8d335d1b822a37e196d4f21bc2a0d84c345cd69b1105e5939d5bd67",
    "density eps=1/n": "eebfa93f57031d62557d4e7bfd7b8b0efcfb577c41ebaee62cec6416e8446aee",
    "vaw": "90517e9bb297bb8b45969e7032fbd2559d4ca2044f889b870f44460f02bec6f2",
}


@pytest.mark.parametrize("job", RESULTS_GOLDEN)
def test_run_results_csv_matches_golden_digest(tmp_path, job):
    task, *sets = job.split()
    assert main(["run", "--task", task, "--seed", "1", "--out", str(tmp_path),
                 *(["--set", *sets] if sets else [])]) == 0
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == RESULTS_GOLDEN[job]


#: sha256 of the report.txt that `mlsa audit --seed 1` writes, less its
#: ``out`` and ``total_s`` lines, for the jobs of RESULTS_GOLDEN: every
#: certificate, deep check and report section, bit for bit.  Like those,
#: they are the same with numpy's AVX-512 and AVX2 kernels disabled, and the
#: vaw digest depends on OpenBLAS's kernel in the same way (its fit and its
#: pinv-identity residue); the logistic report is pinned by the layout test
#: below instead.
REPORT_GOLDEN = {
    "classification d=1": "b620ca257b9727706ae006997e68a95c3579f1802df9b6040dc0608dcb489e2b",
    "classification d=2": "30e28f1ba840044b32932b2065cc7318a39ebc076ac2de5a38de992323e9bde1",
    "classification d=4 n=30": "7dfc1881e882686a64fef890b998eee2defe4b4fb1e081790c4ed4969c6f5aef",
    "regression": "b0b6a54159a7a0c318191cac51ce2afb2ed61075a0fc39a4f2f45308fd0854ce",
    "density eps=0": "f976d0582c4607c2cfb082d4bcc8fa4d45f0644a2e8c0387f588712c8c49cbf4",
    "density eps=1/n": "fa0775327762aae17ff016581ca307f2a67736ba39c61127dbcc9fbdd49e173c",
    "vaw": "cc39a5346912e18732952bfde49ecaebfc91da894f67f8505ed35cc34512b6b3",
}


def audit_report(tmp_path, job) -> str:
    """The report.txt of `mlsa audit --seed 1` for ``job``, less ``out`` and ``total_s``."""
    task, *sets = job.split()
    assert main(["audit", "--task", task, "--seed", "1", "--out", str(tmp_path),
                 *(["--set", *sets] if sets else [])]) == 0
    lines = (tmp_path / "report.txt").read_text().splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith(("out = ", "total_s = ")))


@pytest.mark.parametrize("job", REPORT_GOLDEN)
def test_audit_report_matches_golden_digest(tmp_path, job):
    digest = hashlib.sha256(audit_report(tmp_path, job).encode()).hexdigest()
    assert digest == REPORT_GOLDEN[job]


def test_audit_logistic_report_has_the_golden_certificate_layout(tmp_path):
    blocks = audit_report(tmp_path, "logistic").split("[run logistic-0000 / certificate ")[1:]
    layout = [(name, [line.split(" = ")[0] for line in body.split("\n\n")[0].splitlines()])
              for name, body in (block.split("]\n", 1) for block in blocks)]
    assert all(keys[:4] == ["lhs", "rhs", "slack", "passed"] for _, keys in layout)
    assert [(name, keys[4:]) for name, keys in layout] == [
        ("logistic-oracle-bound", ["erm_loss", "delta", "d", "n", "log_term", "grid_size",
                                   "rhs_nominal", "mc_slack"]),
        ("crn-sandwich", ["cells"]),
        ("ellipsoid-containment", ["samples", "interior", "grad_norm"]),
        ("containment-halfspace", ["stderr"]),
        ("volume-bound", ["estimate", "stderr", "count", "samples"]),
    ]


def test_cli_run_writes_report_and_csv(tmp_path):
    out = tmp_path / "run0"
    code = main(
        ["run", "--task", "regression", "--seed", "5", "--out", str(out),
         "--set", "n=30", "class_size=8"]
    )
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "[config]" in report and "certificate" in report
    csv = (out / "results.csv").read_text().splitlines()
    assert csv[0] == "instance_id,n,d,loo,erm_per_n,bound,slack,rho_hat"
    assert csv[1].startswith("regression-0000,30,0,")


def test_cli_rerun_is_byte_identical(tmp_path):
    args = ["run", "--task", "density", "--seed", "9", "--set", "n=25",
            "class_size=4", "space_size=8", "eps=1/n"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_cli_vaw_report_has_only_linear_certificate(tmp_path):
    out = tmp_path / "vaw0"
    assert main(["run", "--task", "vaw", "--seed", "3", "--out", str(out),
                 "--set", "n=20", "d=4"]) == 0
    report = (out / "report.txt").read_text()
    assert report.count("certificate") == 1
    assert "linear-shrinkage-loo-bound" in report


def test_cli_audit_subcommand_runs_deep_checks(tmp_path):
    out = tmp_path / "audit0"
    assert main(["audit", "--task", "vaw", "--seed", "4", "--out", str(out),
                 "--set", "n=15", "d=3"]) == 0
    assert "pinv-identity" in (out / "report.txt").read_text()


@pytest.mark.parametrize(
    "task,extra",
    [
        ("classification", ["n=25", "noise=0.1"]),
        ("regression", ["n=25", "class_size=6"]),
        ("density", ["n=25", "class_size=4", "space_size=8"]),
    ],
)
def test_cli_audit_finite_class_tasks(tmp_path, task, extra):
    out = tmp_path / f"audit-{task}"
    code = main(["audit", "--task", task, "--seed", "11", "--out", str(out),
                 "--set", *extra])
    assert code == 0
    assert "[growth-audit]" not in (out / "report.txt").read_text()  # section is per run
    assert "growth-audit" in (out / "report.txt").read_text()


def test_cli_density_singleton_class(tmp_path):
    out = tmp_path / "single"
    assert main(["run", "--task", "density", "--seed", "12", "--out", str(out),
                 "--set", "n=20", "class_size=1", "space_size=4"]) == 0
    csv = (out / "results.csv").read_text().splitlines()[1]
    assert csv.endswith(",")  # no growth fraction for a singleton class


def test_cli_sweep_cartesian_and_thread_determinism(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "task = regression\nn = 20, 30\nclass_size = 4, 8\nloss = absolute\nseed = 13\n"
    )
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_serial)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out_parallel),
                 "--threads", "4"]) == 0
    serial = (out_serial / "results.csv").read_text()
    assert (out_parallel / "results.csv").read_text() == serial
    assert len(serial.splitlines()) == 1 + 4  # header + 2x2 combos


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_sweep_keeps_finished_rows_when_a_job_raises(tmp_path, capsys, threads):
    # the n=2 job raises (the classification grid needs n >= 3); the n=20 job
    # must still reach results.csv, and the error the report
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("task = classification\nn = 2, 20\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 1
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("classification-0001,20,")
    report = (out / "report.txt").read_text()
    assert "[errors]\nclassification-0000 = ValueError: classification grid needs n >= 3" in report
    assert "[run classification-0001]" in report
    assert "classification-0000" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def _settled(report: str) -> str:
    """A report less the lines that name how it was run: workers, directory, time."""
    run_settings = ("threads = ", "out = ", "total_s = ")
    return "".join(line for line in report.splitlines(keepends=True)
                   if not line.startswith(run_settings))


def test_cli_sweep_of_every_task_is_byte_identical_on_worker_processes(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("task = classification, regression, density, logistic, vaw\nn = 12\n"
                   "mc_samples = 2000\ninstances = 2\nseed = 5\n")
    outs = {threads: tmp_path / threads for threads in ("1", "2")}
    for threads, out in outs.items():
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
        assert multiprocessing.active_children() == []
    serial, forked = ((out / "results.csv").read_bytes() for out in outs.values())
    assert forked == serial and len(serial.splitlines()) == 1 + 10
    serial, forked = (_settled((out / "report.txt").read_text()) for out in outs.values())
    assert forked == serial


@pytest.mark.parametrize(
    "task,extra",
    [
        ("classification", ["n=25", "noise=0.1"]),
        ("density", ["n=25", "class_size=4", "space_size=8"]),
        ("logistic", ["n=8", "mc_samples=2000"]),
        ("vaw", ["n=15", "d=3"]),
    ],
)
def test_cli_audit_deep_checks_are_byte_identical_on_worker_processes(tmp_path, task, extra):
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["audit", "--task", task, "--seed", "7", "--out", str(out), "--threads",
                     threads, "--set", *extra, "instances=3"]) == 0
        reports.append(_settled((out / "report.txt").read_text()))
    assert reports[0] == reports[1]
    assert reports[0].count("/ certificate ") >= 3 * 2  # the headline and the deep checks


def test_cli_logistic_sweep_forks_workers_while_the_block_pool_runs(tmp_path, monkeypatch):
    # the workers are forked while a block thread of the parent is alive, held
    # inside a call on another thread; each opens threads of its own for the
    # loops of its logistic pool
    monkeypatch.setattr(core_module, "_WORKERS", 2)
    monkeypatch.setattr(core_module, "_PARALLEL_ROW_ENTRIES", 1)
    release = threading.Event()
    holder = threading.Thread(target=core_module._for_each_block,
                              args=(lambda start: start == 0 or release.wait(60), [0, 1], 1))
    holder.start()
    while not any(t.name.startswith("mlsa-block") for t in threading.enumerate()):
        time.sleep(0.001)
    out = tmp_path / "out"
    args = ["sweep", "--task", "logistic", "--seed", "2", "--out", str(out), "--threads", "2",
            "--set", "n=8", "mc_samples=2000", "instances=3"]
    codes = []
    sweep = threading.Thread(target=lambda: codes.append(main(args)), daemon=True)
    sweep.start()
    sweep.join(timeout=60)
    release.set()
    holder.join(timeout=60)
    if sweep.is_alive():
        for child in multiprocessing.active_children():
            child.kill()
        pytest.fail("a forked worker hung on the parent's block threads")
    assert codes == [0]
    assert len((out / "results.csv").read_text().splitlines()) == 1 + 3
    assert multiprocessing.active_children() == []
    assert not holder.is_alive()


def test_cli_one_job_forks_no_worker_process(tmp_path, monkeypatch):
    built = []
    executor = concurrent.futures.ProcessPoolExecutor

    def spy(*args, **kwargs):
        built.append(args)
        return executor(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    common = ["--task", "vaw", "--seed", "3", "--threads", "2", "--set", "n=10", "d=2"]
    assert main(["sweep", "--out", str(tmp_path / "one"), *common]) == 0
    assert built == []
    assert main(["sweep", "--out", str(tmp_path / "two"), *common, "instances=2"]) == 0
    assert built == [(2,)]


def test_cli_sweep_chunks_of_every_task_are_byte_identical_at_one_two_and_three_workers(
        tmp_path):
    # 40 jobs: chunks of 3 jobs on 2 workers and of 2 jobs on 3 workers
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("task = classification, regression, density, logistic, vaw\nn = 12\n"
                   "mc_samples = 1000\ninstances = 8\nseed = 6\n")
    outs = {threads: tmp_path / threads for threads in ("1", "2", "3")}
    for threads, out in outs.items():
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
        assert multiprocessing.active_children() == []
    serial, *forked = ((out / "results.csv").read_bytes() for out in outs.values())
    assert forked == [serial, serial] and len(serial.splitlines()) == 1 + 40
    serial, *forked = (_settled((out / "report.txt").read_text()) for out in outs.values())
    assert forked == [serial, serial]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


def _heap_cycle_faults(send, cycles=5):
    """In a forked child: pin the heap as a sweep worker does, then allocate,
    touch and free three 4 MiB arrays per cycle; send each cycle's faults."""
    cli_module._keep_heap()
    faults = []
    for _ in range(cycles):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(1 << 19) for _ in range(3)]
        del arrays
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    send.send(faults)


@pytest.mark.skipif(not _has_mallopt() or "fork" not in multiprocessing.get_all_start_methods(),
                    reason="the heap pin needs glibc's mallopt, and sweep workers need fork")
def test_worker_heap_pin_stops_freed_arrays_faulting_in_again():
    # unpinned, glibc gives the arrays back to the kernel when they are freed
    # and each cycle faults about 1,000 pages in again; pinned, the first
    # cycle's pages serve every later one
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_heap_cycle_faults, args=(send,))
    child.start()
    assert receive.poll(60)
    faults = receive.recv()
    child.join(60)
    assert child.exitcode == 0
    assert max(faults[1:]) < 64, faults


def test_cli_sweep_submits_one_task_per_chunk_of_jobs(tmp_path, monkeypatch):
    submitted = []
    submit = concurrent.futures.ProcessPoolExecutor.submit

    def spy(self, fn, *args, **kwargs):
        submitted.append((fn, args))
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", spy)
    out = tmp_path / "out"
    assert main(["sweep", "--task", "vaw", "--seed", "3", "--out", str(out), "--threads", "2",
                 "--set", "n=10", "d=2", "instances=80"]) == 0
    # ceil(80 / (8 chunks per worker x 2 workers)) = 5 jobs a chunk: 16 tasks, not 80
    assert len(submitted) == 16
    assert all(fn is cli_module._jobs and len(chunk) == 5 and deep_audit is False
               for fn, (chunk, deep_audit) in submitted)
    assert [index for _, (chunk, _) in submitted for index, _ in chunk] == list(range(80))
    assert len((out / "results.csv").read_text().splitlines()) == 1 + 80


def test_cli_sweep_fails_the_whole_chunk_of_a_worker_that_dies(tmp_path, capsys, monkeypatch):
    # 40 jobs on 2 workers go in chunks of 3; job 7 (of the chunk 6, 7, 8)
    # exits once every job outside its chunk is done and their chunks have
    # come back.  Job 6 finished in the dying worker, but its result never left.
    real = cli_module.run_experiment
    others = {f"done-{index}" for index in range(40)} - {"done-6", "done-7", "done-8"}

    def dies_at_seven(config, instance_index=0, deep_audit=False):
        if instance_index == 7:
            deadline = time.monotonic() + 30
            while (not others <= {p.name for p in tmp_path.glob("done-*")}
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            time.sleep(1.0)  # the other chunks reach the parent first
            os._exit(3)
        result = real(config, instance_index=instance_index, deep_audit=deep_audit)
        (tmp_path / f"done-{instance_index}").touch()
        return result

    monkeypatch.setattr(cli_module, "run_experiment", dies_at_seven)
    out = tmp_path / "out"
    assert main(["sweep", "--task", "vaw", "--seed", "3", "--out", str(out), "--threads", "2",
                 "--set", "n=10", "d=2", "instances=40"]) == 1
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        f"vaw-{index:04d}" for index in range(40) if index not in (6, 7, 8)
    ]
    report = (out / "report.txt").read_text()
    errors = report.split("[errors]\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert [line.split(" = ")[0] for line in errors] == ["vaw-0006", "vaw-0007", "vaw-0008"]
    assert all(" = BrokenProcessPool: " in line for line in errors)
    err = capsys.readouterr().err
    assert all(f"error vaw-000{index}: BrokenProcessPool: " in err for index in (6, 7, 8))
    assert multiprocessing.active_children() == []


def test_cli_sweep_keeps_finished_rows_when_a_worker_dies(tmp_path, capsys, monkeypatch):
    # job 2's worker exits once every other job is done; the workers inherit
    # the patch through fork
    real = cli_module.run_experiment

    def dies_at_two(config, instance_index=0, deep_audit=False):
        if instance_index == 2:
            deadline = time.monotonic() + 30
            while len(list(tmp_path.glob("done-*"))) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(1.0)  # the other results reach the parent first
            os._exit(3)
        result = real(config, instance_index=instance_index, deep_audit=deep_audit)
        (tmp_path / f"done-{instance_index}").touch()
        return result

    monkeypatch.setattr(cli_module, "run_experiment", dies_at_two)
    out = tmp_path / "out"
    assert main(["sweep", "--task", "classification", "--seed", "3", "--out", str(out),
                 "--threads", "2", "--set", "n=20", "instances=4"]) == 1
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "classification-0000", "classification-0001", "classification-0003"
    ]
    report = (out / "report.txt").read_text()
    assert "[errors]\nclassification-0002 = BrokenProcessPool: " in report
    assert "error classification-0002: BrokenProcessPool: " in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_cli_failed_certificate_crosses_the_worker_processes(tmp_path, capsys, monkeypatch):
    real = audit_module.verify_grid_majority_bound
    monkeypatch.setattr(audit_module, "verify_grid_majority_bound",
                        lambda *a, **k: dataclasses.replace(real(*a, **k), rhs=-1.0))
    out = tmp_path / "out"
    assert main(["sweep", "--task", "regression", "--seed", "4", "--out", str(out),
                 "--threads", "2", "--set", "n=20", "class_size=6", "instances=2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    for index, line in enumerate(lines[:2]):
        assert line.startswith(f"FAIL regression-000{index} ")
        assert " (grid-majority-loo-bound: slack = -" in line
    report = (out / "report.txt").read_text()
    assert "[errors]" not in report
    assert report.count("\npassed = False\nreason = slack = -") == 2
    assert multiprocessing.active_children() == []


def test_cli_report_aggregates(tmp_path, capsys):
    out = tmp_path / "r0"
    main(["run", "--task", "classification", "--seed", "2", "--out", str(out),
          "--set", "n=25", "noise=0.1"])
    summary = tmp_path / "summary.txt"
    code = main(["report", str(out / "results.csv"), "--out", str(summary)])
    assert code == 0
    text = summary.read_text()
    assert "classification" in text and "min_slack" in text


def test_cli_run_accepts_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task = classification\nn = 25\nnoise = 0.1\nseed = 19\n")
    out = tmp_path / "cfg-run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "results.csv").exists()


@pytest.mark.parametrize("command", ["run", "audit", "gen"])
def test_cli_single_run_commands_refuse_value_lists(tmp_path, capsys, command):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("task = classification\nn = 20, 30\nseed = 5\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "several values: n;" in err and "sweep" in err
    assert not out.exists()


def test_cli_missing_seed_is_an_error(tmp_path, capsys):
    code = main(["run", "--task", "vaw", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_cli_gen_writes_matrices(tmp_path):
    out = tmp_path / "gen0"
    assert main(["gen", "--task", "logistic", "--seed", "8", "--out", str(out),
                 "--set", "n=12", "d=2"]) == 0
    data = np.loadtxt(out / "problem.txt")
    assert data.shape == (12, 3)
    assert set(np.unique(data[:, -1])) <= {-1.0, 1.0}


@pytest.mark.parametrize(
    "task,extra,shapes",
    [
        ("classification", ["n=12", "d=2"],
         {"covariates.txt": (12,), "labels.txt": (12,), "table.txt": (12, None)}),
        ("regression", ["n=12", "class_size=5"], {"table.txt": (12, 5), "responses.txt": (12,)}),
        ("density", ["n=12", "class_size=4", "space_size=6"],
         {"densities.txt": (4, 6), "observations.txt": (12,)}),
        ("logistic", ["n=12", "d=2"], {"problem.txt": (12, 3)}),
        ("vaw", ["n=12", "d=3"], {"design.txt": (12, 4)}),
    ],
)
def test_cli_gen_writes_each_tasks_files(tmp_path, task, extra, shapes):
    out = tmp_path / task
    assert main(["gen", "--task", task, "--seed", "2", "--out", str(out), "--set", *extra]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(shapes)
    for name, shape in shapes.items():
        data = np.loadtxt(out / name)
        assert data.ndim == len(shape)
        assert all(want is None or got == want for got, want in zip(data.shape, shape))


def test_cli_gen_writes_bool_table_as_its_float_twin(tmp_path):
    # the classification table is bool in memory; its file is the float one's
    out = tmp_path / "cls"
    assert main(["gen", "--task", "classification", "--seed", "5", "--out", str(out),
                 "--set", "n=15", "d=2"]) == 0
    _, inst = _generate(ExperimentConfig(task="classification", seed=5, n=15, d=2), 0)
    assert inst.table.values.dtype == bool
    twin = tmp_path / "twin.txt"
    np.savetxt(twin, inst.table.values.astype(float), fmt="%.17g")
    assert (out / "table.txt").read_bytes() == twin.read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_run_matches_one_combo_sweep(tmp_path, threads):
    keys = ["n=20", "class_size=6", "instances=3"]
    common = ["--task", "regression", "--seed", "4", "--threads", threads, "--set", *keys]
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", "--out", str(run_out), *common]) == 0
    assert main(["sweep", "--out", str(sweep_out), *common]) == 0
    run_csv = (run_out / "results.csv").read_bytes()
    assert run_csv == (sweep_out / "results.csv").read_bytes()
    assert len(run_csv.splitlines()) == 1 + 3


def test_cli_run_keeps_finished_instances_when_one_raises(tmp_path, capsys):
    # instance 1 draws too few Monte Carlo acceptances and raises; 0, 2 and 3 pass
    out = tmp_path / "out"
    assert main(["run", "--task", "logistic", "--seed", "1", "--out", str(out),
                 "--set", "n=8", "mc_samples=300", "instances=4"]) == 1
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "logistic-0000", "logistic-0002", "logistic-0003"
    ]
    report = (out / "report.txt").read_text()
    assert "[errors]\nlogistic-0001 = InsufficientAcceptanceError: " in report
    assert "error logistic-0001: InsufficientAcceptanceError" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "audit"])
def test_cli_logistic_crn_sandwich_violation_fails_the_run(tmp_path, capsys, monkeypatch,
                                                            command):
    args = ["--task", "logistic", "--seed", "1", "--set", "n=8", "mc_samples=2000"]
    passing = tmp_path / "pass"
    assert main([command, *args, "--out", str(passing)]) == 0
    kernel = logistic_module._sandwich_violations

    def two_violations(*a, **k):
        bad = kernel(*a, **k)
        bad[0] += 2
        return bad

    monkeypatch.setattr(logistic_module, "_sandwich_violations", two_violations)
    out = tmp_path / "fail"
    assert main([command, *args, "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-2].startswith("FAIL logistic-0000 ")
    report = (out / "report.txt").read_text()
    assert ("[run logistic-0000 / certificate crn-sandwich]\nlhs = 2.0\nrhs = 0.0\n"
            "slack = -2.0\npassed = False\nreason = slack = -2.0 is below -1e-09\n") in report
    assert "[errors]" not in report
    # the CSV row carries the headline bound, unchanged
    assert (out / "results.csv").read_bytes() == (passing / "results.csv").read_bytes()


LOGISTIC_SMALL = ["n=8", "mc_samples=2000"]


@pytest.mark.parametrize(
    "task,extra,module,check,forced,certificate",
    [
        ("classification", ["n=25", "noise=0.1"], audit_module, "check_aggregation_stability",
         {"lhs": 1.0}, "aggregation-stability"),
        ("density", ["n=25", "class_size=4", "space_size=8"], audit_module,
         "check_aggregation_stability", {"lhs": 2.0}, "aggregation-stability"),
        ("logistic", LOGISTIC_SMALL, logistic_module, "verify_ellipsoid_containment",
         {"lhs": 3.0}, "ellipsoid-containment"),
        ("logistic", LOGISTIC_SMALL, logistic_module, "verify_ellipsoid_containment",
         {"rhs": 0.25}, "containment-halfspace"),
        ("logistic", LOGISTIC_SMALL, logistic_module, "verify_volume_lower_bound",
         {"rhs": 0.0}, "volume-bound"),
        ("vaw", ["n=15", "d=3"], linear_module, "verify_pinv_identity",
         {"lhs": 1.0}, "pinv-identity"),
    ],
    ids=["aggregation-classification", "aggregation-density", "containment", "halfspace",
         "volume", "pinv"],
)
def test_cli_failed_deep_check_is_a_failed_certificate(tmp_path, capsys, monkeypatch, task,
                                                       extra, module, check, forced,
                                                       certificate):
    args = ["audit", "--task", task, "--seed", "1", "--set", *extra]
    passing = tmp_path / "pass"
    assert main([*args, "--out", str(passing)]) == 0
    capsys.readouterr()
    real = getattr(module, check)
    reasons = []

    def force(cert):
        if cert.name == certificate:
            cert = dataclasses.replace(cert, **forced)
            reasons.append(cert.reason)
        return cert

    def forced_check(*a, **k):
        # a check returns its certificate, or a list of them
        certs = real(*a, **k)
        return [force(c) for c in certs] if isinstance(certs, list) else force(certs)

    monkeypatch.setattr(module, check, forced_check)
    out = tmp_path / "fail"
    assert main([*args, "--out", str(out)]) == 1
    [reason] = reasons
    assert reason.startswith("slack = -")
    fail_line = capsys.readouterr().out.splitlines()[-2]
    assert fail_line.startswith(f"FAIL {task}-0000 ")
    assert fail_line.endswith(f" ({certificate}: {reason})")
    report = (out / "report.txt").read_text()
    block = report.split(f"[run {task}-0000 / certificate {certificate}]\n")[1].split("[")[0]
    assert f"passed = False\nreason = {reason}\n" in block
    assert report.count("passed = False\n") == 2  # the run's and the certificate's
    assert "[errors]" not in report
    # the row is written, with the headline bound and slack unchanged
    assert (out / "results.csv").read_bytes() == (passing / "results.csv").read_bytes()


@pytest.mark.parametrize(
    "task,extra",
    [
        ("classification", ["n=25", "noise=0.1"]),
        ("regression", ["n=25", "class_size=6"]),
        ("density", ["n=25", "class_size=4", "space_size=8"]),
    ],
)
def test_cli_grid_majority_failure_is_a_failed_certificate(tmp_path, capsys, monkeypatch, task,
                                                           extra):
    args = ["run", "--task", task, "--seed", "1", "--set", *extra, "instances=2"]
    passing = tmp_path / "pass"
    assert main([*args, "--out", str(passing)]) == 0
    capsys.readouterr()
    real = audit_module.run_and_audit
    audits = []

    def first_at_minority(*a, **k):
        # only the first job's audit measures a good fraction of 0.4
        output, audit = real(*a, **k)
        audits.append(audit)
        return output, (dataclasses.replace(audit, good_fraction=0.4) if len(audits) == 1
                        else audit)

    monkeypatch.setattr(audit_module, "run_and_audit", first_at_minority)
    out = tmp_path / "fail"
    assert main([*args, "--out", str(out)]) == 1
    why = "grid-majority failure: measured good fraction 0.4000 <= 1/2"
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"FAIL {task}-0000 ")
    assert lines[0].endswith(f" (grid-majority-loo-bound: {why})")
    assert lines[1].startswith(f"PASS {task}-0001 ")
    assert lines[2] == "2 runs, 1 failed, 0 errors, " + lines[2].rsplit(" ", 1)[1]
    report = (out / "report.txt").read_text()
    assert "[errors]" not in report
    block = report.split(f"[run {task}-0000 / certificate grid-majority-loo-bound]\n")[1]
    assert block.startswith("lhs = ")
    assert f"\nrhs = nan\nslack = nan\npassed = False\nreason = {why}\nerm_loss = " in block
    assert "\nrho_hat = 0.4\n" in block.split("[")[0]
    assert report.count("passed = False\n") == 2  # the run's and the certificate's
    # the failed job keeps its row, with the measured fraction; the other row is unchanged
    header, failed, other = (out / "results.csv").read_text().splitlines()
    expected = (passing / "results.csv").read_text().splitlines()
    assert [header, other] == [expected[0], expected[2]]
    assert failed.split(",")[:7] == expected[1].split(",")[:7]
    assert failed.split(",")[7] == "0.4"


@pytest.mark.parametrize("command", ["run", "audit", "gen", "sweep"])
def test_cli_unknown_set_key_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--task", "vaw", "--seed", "1", "--out", str(out),
                 "--set", "foo=1"]) == 2
    assert "--set: unknown config key 'foo'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,lines,message", [
    # the first command used to run vaw at seed 1, the --set values unread
    (["--task", "vaw", "--seed", "1", "--set", "task=density", "seed=7", "n=20"], "",
     "task is given twice: by --set task=density and by --task"),
    (["--task", "vaw", "--seed", "1", "--threads", "2"], "threads = 1\n",
     "threads is given twice: by {cfg}:1 and by --threads"),
    (["--task", "vaw", "--seed", "1"], "out = elsewhere\n",
     "out is given twice: by {cfg}:1 and by --out"),
    (["--task", "vaw", "--set", "seed=2"], "n = 20\nseed = 1\n",
     "seed is given twice: by {cfg}:2 and by --set seed=2"),
    (["--task", "vaw", "--seed", "1", "--set", "n=20", "n=30"], "",
     "n is given twice: by --set n=20 and by --set n=30"),
    (["--seed", "1"], "task = vaw\nn = 20\n# n = 10\nn = 30\n",
     "n is given twice: by {cfg}:2 and by {cfg}:4"),
], ids=["flag-and-set", "flag-and-file", "out-flag-and-file", "set-and-file", "set-twice",
        "file-twice"])
def test_cli_key_given_twice_is_a_config_error(tmp_path, capsys, monkeypatch, args, lines,
                                                message):
    jobs = []
    monkeypatch.setattr(cli_module, "_run_jobs", lambda *a: jobs.append(a))
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(lines)
    out = tmp_path / "out"
    for command in ("run", "audit", "gen", "sweep"):
        assert main([command, *args, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error ({command}): {message.format(cfg=cfg)}\n"
    assert jobs == [] and not out.exists()


#: One refused value for every key of ``ExperimentConfig`` but ``seed`` and
#: ``out``, and each deleted key: (task, ``--set`` setting, error message).
BAD_SETTINGS = [
    ("density", "eps=-0.5", "eps = -0.5: "),
    ("classification", "noise=1/n", "--set: noise = 1/n: only eps takes 1/n"),
    ("regression", "M=1/n", "--set: M = 1/n: only eps takes 1/n"),
    # one value outside each key's range
    ("regression", "noise=2", "noise = 2.0: noise takes a rate in [0, 1]"),
    ("regression", "M=0", "M = 0.0: M takes a positive, finite loss bound"),
    ("vaw", "n=0", "n = 0: n takes a positive count"),
    ("regression", "class_size=0", "class_size = 0: class_size takes a positive count"),
    ("density", "space_size=-3", "space_size = -3: space_size takes a positive count"),
    ("vaw", "threads=0", "threads = 0: threads takes a positive count"),
    ("logistic", "mc_samples=99", "mc_samples = 99: mc_samples takes at least 100 draws"),
    ("vaw", "task=bogus", "unknown task 'bogus'"),
    ("classification", "d=3", "d = 3: the classification task takes d = 1, 2 or 4"),
    ("logistic", "d=0", "d = 0: d takes a positive count"),
    ("regression", "loss=cubic", "loss = 'cubic': loss takes one of ('squared', 'absolute')"),
    ("logistic", "r=-1", "r = -1.0: r takes a positive, finite radius"),
    ("logistic", "R=inf", "R = inf: R takes a positive, finite radius"),
    ("density", "eps=0.1", "eps = 0.1: eps takes 0 (no smoothing) or 1/n"),
    ("classification", "generator=bogus", "generator = 'bogus': no VC dimension on record"),
    ("classification", "generator=explicit-table", "generator = 'explicit-table': no VC dimension"),
    ("classification", "k_intervals=0", "k_intervals = 0: k_intervals takes a positive count"),
    ("vaw", "instances=0", "instances = 0: instances takes a positive count"),
    # the keys that no longer exist
    ("classification", "grid_levels=40", "--set: unknown config key 'grid_levels'"),
    ("vaw", "svd_tol=0.1", "--set: unknown config key 'svd_tol'"),
    ("logistic", "min_accepted=200", "--set: unknown config key 'min_accepted'"),
]


def test_bad_config_settings_refuse_a_value_of_every_key():
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"seed", "out"}
    assert keys <= {setting.split("=")[0] for _, setting, _ in BAD_SETTINGS}


@pytest.mark.parametrize("task,setting,message", BAD_SETTINGS)
def test_cli_bad_config_value_stops_before_any_job(tmp_path, capsys, monkeypatch, task,
                                                   setting, message):
    jobs = []
    monkeypatch.setattr(cli_module, "_run_jobs", lambda *args: jobs.append(args))
    out = tmp_path / "out"
    # a setting of task or n takes the place of the base one: each key is given once
    key = setting.split("=")[0]
    base = [pair for pair in (f"task={task}", "n=20") if pair.split("=")[0] != key]
    for command in ("run", "audit", "gen", "sweep"):
        assert main([command, "--seed", "1", "--out", str(out),
                     "--set", *base, setting]) == 2
        assert message in capsys.readouterr().err
    assert jobs == [] and not out.exists()


def test_cli_sweep_checks_every_combo_before_any_job(tmp_path, capsys, monkeypatch):
    jobs = []
    monkeypatch.setattr(cli_module, "_run_jobs", lambda *args: jobs.append(args))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("task = density\nn = 20\neps = 0.05, 0.5\nseed = 1\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "eps = 0.5: " in capsys.readouterr().err
    assert jobs == [] and not out.exists()


def test_cli_eps_one_over_n_smooths_by_one_over_n(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--task", "density", "--seed", "1", "--out", str(out),
                 "--set", "n=20", "class_size=4", "space_size=8", "eps=1/n"]) == 0
    report = (out / "report.txt").read_text()
    assert "\neps = -1.0\n" in report.split("\n\n", 1)[0]  # the config echo
    instance = report.split("[run density-0000 / instance]\n", 1)[1].split("[run ", 1)[0]
    assert "\neps = 0.05\n" in instance
    smoothed = report.split("/ certificate smoothed-density-oracle-bound]\n", 1)[1]
    assert "\nepsilon = 0.05\n" in smoothed.split("[run ", 1)[0]


def test_report_gives_the_reason_of_a_failed_certificate_only(tmp_path):
    ok = BoundCertificate(name="ok", lhs=0.1, rhs=0.2)
    bad = BoundCertificate(name="bad", lhs=0.1, rhs=math.inf)
    result = InstanceResult("vaw-0000", 5, 1, 0.1, 0.0, 0.2, 0.1, None, certificates=[ok, bad])
    path = tmp_path / "report.txt"
    write_report(path, ExperimentConfig(task="vaw", seed=1), [result], {"total_s": 0.0})
    text = path.read_text()
    assert text.count("reason = ") == 1
    assert ("[run vaw-0000 / certificate bad]\nlhs = 0.1\nrhs = inf\nslack = inf\n"
            "passed = False\nreason = rhs = inf is not finite\n") in text


@pytest.mark.parametrize("slack", ["nan", "inf", "-inf"])
def test_cli_report_counts_non_finite_slack_as_failure(tmp_path, capsys, slack):
    csv = tmp_path / "results.csv"
    csv.write_text(f"{CSV_HEADER}\nvaw-0000,5,1,0.1,0.0,0.2,{slack},\n"
                   "vaw-0001,5,1,0.1,0.0,0.2,0.1,\n")
    assert main(["report", str(csv)]) == 1
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:3] == ["vaw", "2", "1"]


def test_cli_report_shows_a_nan_from_a_later_row(tmp_path, capsys):
    csv = tmp_path / "results.csv"
    csv.write_text(f"{CSV_HEADER}\nvaw-0000,5,1,0.1,0.0,0.2,0.1,\n"
                   "vaw-0001,5,1,nan,0.0,0.2,nan,\n")
    assert main(["report", str(csv)]) == 1
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row == ["vaw", "2", "1", "nan", "nan", "-"]


def test_cli_gen_refuses_several_instances(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gen", "--task", "vaw", "--seed", "1", "--out", str(out),
                 "--set", "n=5", "instances=3"]) == 2
    assert "instances = 3" in capsys.readouterr().err
    assert not out.exists()
    assert main(["gen", "--task", "vaw", "--seed", "1", "--out", str(out),
                 "--set", "n=5", "instances=1"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["design.txt"]
