"""Smoke tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

COUNTS = ("network.layers_validated", "cpwl.nodes_out", "compiler.depth_total")
VERDICTS = ("failed_ratio", "budget_ratio.max", "sup_error.max")


def smoke(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] > 0
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want


@pytest.mark.parametrize("workload", ["spline-wide", "sweeps"])
def test_same_seed_same_counts(workload):
    first, second = smoke(workload, 1), smoke(workload, 1)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    first, second = smoke(workload, 0), smoke(workload, 0)
    for name in VERDICTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_quantile():
    assert run.quantile([5.0], 0.5) == 5.0
    values = np.arange(1.0, 28.0)
    assert run.quantile(values[::-1], 0.5) == pytest.approx(14.0)
    tail = run.quantile(values, run.tail_percentile(values.size) / 100.0)
    assert np.percentile(values, 60) < tail < np.percentile(values, 70)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_heavy_jobs_fit_beyond_the_tail(workload, tmp_path):
    jobs = workloads.make_round(workload, 1, 0, str(tmp_path))
    heavy = [job for job in jobs if workloads.is_heavy(workload, job)]
    assert 0 < len(heavy) <= run.TAIL_BEYOND


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def perturb_one_weight(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    # line 4 feeds x to the first computational channel; the rails stay
    # intact, so the file still passes the program's structural checks
    tokens = lines[3].split()
    tokens[0] = repr(float(tokens[0]) + 1e-3)
    lines[3] = " ".join(tokens)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_planted_wrong_network_fails(tmp_path):
    import spline2relu
    from spline2relu import cli  # noqa: F401
    knots, values = workloads.regular_spline(np.random.default_rng(3), 40)
    path = str(tmp_path / "f.spl")
    workloads.write_spline(path, knots, values)
    job = workloads.spline_job("planted", 8, knots, values, path, str(tmp_path))
    clean = workloads.run_net_job(spline2relu.cli, job)
    assert clean.failed == 0 and clean.attempted == 3
    planted = workloads.run_net_job(spline2relu.cli, job, tamper=perturb_one_weight)
    assert planted.attempted == 3
    assert planted.failed_unexpected == planted.failed == 3
