"""Tests of scripts/bench_pairs.py: the fold of kept parent/change runs."""

import importlib.util
import json
import os

import numpy as np
import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "compile_ms.p50", "better": "lower", "bound": 0.25},
              {"name": "breakpoints_per_s", "better": "higher", "bound": 0.25},
              {"name": "sup_error.max", "better": "lower", "bound": 0.05}]


def _run(side, pair, values, workload="sweeps", seed=5, trace=0, failed=0, attempted=100):
    return {"side": side, "pair": pair, "first": "parent" if pair % 2 == 0 else "change",
            "workload": workload, "seed": seed, "trace": trace, "correct": failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}}


def _series(parent_ms, change_ms, workload="sweeps", change_failed=0, parent_failed=0,
            change_attempted=100):
    runs = []
    for pair, (p, c) in enumerate(zip(parent_ms, change_ms)):
        for side, ms, failed, attempted in (("parent", p, parent_failed, 100),
                                            ("change", c, change_failed, change_attempted)):
            runs.append(_run(side, pair, {"compile_ms.p50": ms, "breakpoints_per_s": 1e3 / ms,
                                          "sup_error.max": 1e-11}, workload, failed=failed,
                             attempted=attempted))
    return runs


def test_fold_keeps_every_pair_and_summarizes_each_metric():
    parent = [7.0, 7.4, 7.2, 7.6, 7.1, 7.3, 7.5, 7.2, 7.4, 7.3]
    change = [4.3, 4.4, 4.2, 4.5, 7.1, 4.3, 4.4, 4.6, 4.3, 4.2]
    out = bench_pairs.fold(_series(parent, change), END_TO_END, ("sweeps", "compile_ms.p50"))
    w = out["workloads"]["sweeps"]
    assert w["seed"] == 5 and [p["pair"] for p in w["pairs"]] == list(range(10))
    first = w["pairs"][0]
    assert first["parent"]["compile_ms.p50"] == 7.0 and first["change"]["compile_ms.p50"] == 4.3
    assert first["first"] == "parent" and w["pairs"][1]["first"] == "change"
    assert first["correct"] == [True, True] and first["parent_attempted"] == 100

    s = w["summary"]["compile_ms.p50"]
    q1, med, q3 = np.percentile(parent, [25, 50, 75])
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (q1, med, q3)
    assert s["parent_iqr"] == q3 - q1
    assert s["change_median"] == np.median(change)
    # pair 4 is a tie: a win for neither side
    assert (s["change_wins"], s["parent_wins"], s["pairs"]) == (9, 0, 10)
    # the change ran first in the odd pairs, and won each of them
    assert s["first_wins"] == 5
    assert s["status"] == "better" and s["within_bound"]
    assert s["change_over_parent"] == pytest.approx(np.median(change) / med)

    faster = w["summary"]["breakpoints_per_s"]
    assert faster["better"] == "higher" and faster["change_wins"] == 9
    assert faster["worse_by"] < 0
    same = w["summary"]["sup_error.max"]
    assert same["status"] == "within parent IQR" and same["change_wins"] == 0
    assert same["worse_by"] == 0.0

    v = out["verdict"]
    assert v["met"] and v["change_wins"] == 9
    assert (v["parent_failed"], v["change_failed"]) == (0, 0)
    assert v["median_gain"] == pytest.approx(med - np.median(change))


def test_fold_statuses_and_claims_not_met():
    parent = [7.0, 7.1, 7.2, 7.3]
    out = bench_pairs.fold(_series(parent, [6.0, 6.1, 6.0, 6.2]), END_TO_END,
                           ("sweeps", "compile_ms.p50"))
    assert out["workloads"]["sweeps"]["summary"]["compile_ms.p50"]["status"] == "better"
    assert out["verdict"]["met"]
    # the same gain, but the change fails more operations than the parent
    out = bench_pairs.fold(_series(parent, [6.0, 6.1, 6.0, 6.2], change_failed=1), END_TO_END,
                           ("sweeps", "compile_ms.p50"))
    assert out["verdict"]["change_failed"] == 4 and out["verdict"]["parent_failed"] == 0
    assert out["verdict"]["change_wins"] == 4 and not out["verdict"]["met"]
    assert (out["verdict"]["parent_failed_share"], out["verdict"]["change_failed_share"]) == (
        0.0, 0.01)
    # a faster change fits twice the operations and fails twice as many:
    # the count rises, the share does not
    out = bench_pairs.fold(_series(parent, [6.0, 6.1, 6.0, 6.2], parent_failed=1,
                                   change_failed=2, change_attempted=200), END_TO_END,
                           ("sweeps", "compile_ms.p50"))
    v = out["verdict"]
    assert (v["parent_failed"], v["change_failed"]) == (4, 8)
    assert v["parent_failed_share"] == v["change_failed_share"] == 0.01 and v["met"]
    # wins in every pair, but a gain inside the parent's own spread
    out = bench_pairs.fold(_series([7.0, 9.0, 7.0, 9.0], [6.9, 8.9, 6.9, 8.9]), END_TO_END,
                           ("sweeps", "compile_ms.p50"))
    assert out["verdict"]["change_wins"] == 4 and not out["verdict"]["met"]
    # worse past the bound
    s = bench_pairs.fold(_series(parent, [9.0, 9.1, 9.2, 9.3]),
                         END_TO_END)["workloads"]["sweeps"]["summary"]["compile_ms.p50"]
    assert not s["within_bound"] and s["parent_wins"] == 4 and s["status"] == "worse"
    # worse outside the parent's quartiles but inside the bound: not a regression
    s = bench_pairs.fold(_series(parent, [7.5, 7.6, 7.5, 7.7]),
                         END_TO_END)["workloads"]["sweeps"]["summary"]["compile_ms.p50"]
    assert s["within_bound"] and 0 < s["worse_by"] < 0.25 and s["status"] == "within bound"
    assert s["change_median"] > s["parent_q3"] and s["parent_wins"] == 4
    assert "verdict" not in bench_pairs.fold(_series(parent, parent), END_TO_END)


def test_fold_counts_the_wins_of_the_side_that_ran_first():
    # pair 0 runs the parent first, pair 1 the change: here the first side
    # always wins, except in pair 4, a tie that counts for neither side
    parent = [1.0, 2.0, 1.0, 2.0, 1.5, 2.0]
    change = [2.0, 1.0, 2.0, 1.0, 1.5, 1.0]
    summary = bench_pairs.fold(_series(parent, change),
                               END_TO_END)["workloads"]["sweeps"]["summary"]
    for metric in ("compile_ms.p50", "breakpoints_per_s"):
        s = summary[metric]
        assert (s["first_wins"], s["change_wins"], s["parent_wins"]) == (5, 3, 2), metric
    assert summary["sup_error.max"]["first_wins"] == 0
    # the change wins every pair: the first side won the pairs the change ran first
    s = bench_pairs.fold(_series(parent, [0.5] * 6),
                         END_TO_END)["workloads"]["sweeps"]["summary"]["compile_ms.p50"]
    assert (s["first_wins"], s["change_wins"]) == (3, 6)


def test_fold_unresolved_when_the_parent_spreads_past_the_bound():
    # parent IQR / median = 5 / 7.5 > 0.25: a change median outside the IQR tells nothing
    wide = [5.0, 10.0, 5.0, 10.0]
    s = bench_pairs.fold(_series(wide, [4.0, 11.0, 4.0, 11.0]),
                         END_TO_END)["workloads"]["sweeps"]["summary"]["compile_ms.p50"]
    assert s["parent_iqr"] / s["parent_median"] > s["bound"] and s["status"] == "unresolved"
    # ... unless every change run beats, or loses to, every parent run
    s = bench_pairs.fold(_series(wide, [1.0, 1.1, 1.0, 1.2]),
                         END_TO_END)["workloads"]["sweeps"]["summary"]["compile_ms.p50"]
    assert s["status"] == "better"
    s = bench_pairs.fold(_series(wide, [20.0, 21.0, 20.0, 22.0]),
                         END_TO_END)["workloads"]["sweeps"]["summary"]["compile_ms.p50"]
    assert s["status"] == "worse"


def test_fold_separates_workloads_and_traced_pairs():
    runs = _series([1.0, 1.1], [0.9, 1.0]) + _series([2.0, 2.1], [2.0, 2.0], "spline-wide")
    runs += [_run("change", 0, {"network.forward_ms": 3.0}, trace=1),
             _run("parent", 0, {"network.forward_ms": 5.0}, trace=1)]
    out = bench_pairs.fold(runs, END_TO_END)
    assert sorted(out["workloads"]) == ["spline-wide", "sweeps"]
    assert len(out["workloads"]["spline-wide"]["pairs"]) == 2
    (traced,) = out["traced"]["sweeps"]
    assert traced["per_layer"] == {"parent": {"network.forward_ms": 5.0},
                                   "change": {"network.forward_ms": 3.0}}


def test_fold_refuses_incomplete_or_mixed_series():
    runs = _series([1.0, 1.1], [0.9, 1.0])
    with pytest.raises(ValueError, match="lacks a side"):
        bench_pairs.fold(runs[:-1], END_TO_END)
    with pytest.raises(ValueError, match="two parent runs"):
        bench_pairs.fold(runs + runs[:1], END_TO_END)
    other = [dict(r, seed=6, pair=r["pair"] + 2) for r in runs]
    with pytest.raises(ValueError, match="two seeds"):
        bench_pairs.fold(runs + other, END_TO_END)


def test_run_pairs_alternates_and_appends_every_run(tmp_path, monkeypatch):
    calls = []

    def fake(checkout, workload, seed, trace, seconds):
        calls.append(checkout)
        assert seconds == 40  # BENCHMARK.json's run_seconds
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"compile_ms.p50": {"value": float(len(calls)), "unit": "ms"}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake)
    runs = tmp_path / "runs.jsonl"
    bench_pairs.main(["run", "--parent", "P", "--change", "C", "--workload", "sweeps",
                      "--seed", "3", "--pairs", "3", "--runs", str(runs)])
    assert calls == ["P", "C", "C", "P", "P", "C"]
    kept = [json.loads(line) for line in runs.read_text().splitlines()]
    assert [(r["pair"], r["side"], r["first"]) for r in kept] == [
        (0, "parent", "parent"), (0, "change", "parent"), (1, "change", "change"),
        (1, "parent", "change"), (2, "parent", "parent"), (2, "change", "parent")]
    assert all(r["seed"] == 3 and r["trace"] == 0 for r in kept)
