"""Parent-versus-change benchmark pairs: run them alternately, keep every run,
fold them into one BENCH_<label>.json.

    python3 scripts/bench_pairs.py run --parent PARENT_DIR --change CHANGE_DIR \\
        --workload sweeps --seed 211 --pairs 10 --runs runs.jsonl
    python3 scripts/bench_pairs.py fold runs.jsonl --label fourier-pairs \\
        --claim-metric sweeps:compile_ms.p50 --out BENCH_fourier-pairs.json

`run` runs `python3 bench/run.py` in each checkout (two `git clone`s or
worktrees of the two commits), alternating which side goes first; pair 0 runs
the parent first.  Every run lasts BENCHMARK.json's `run_seconds`.  The last
stdout line of every run (one JSON object) is appended to the runs file, with
its side, pair, workload, seed and trace, as soon as the run ends, so an
interrupted series keeps what it ran.  `--trace 1` runs give the per-layer
metrics of one traced pair.

`fold` groups untraced runs by workload and pair.  Per pair it keeps both
sides' metrics; per metric it gives medians and quartiles over runs (linear
interpolation, as numpy.percentile), the parent's IQR (q3 - q1), the wins (a
pair is a win for the side that reads better, ties counting for neither), the
wins of the side that ran first (an order bias shows as a steady count) and a
status (see METHOD).  Which side is better, and each metric's bound, come from
BENCHMARK.json.  `--claim-metric WORKLOAD:METRIC` adds the claim's verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")

METHOD = ("pairs alternate which side runs first (pair 0 parent first); each side runs "
          "from its own checkout; medians and quartiles over runs by linear interpolation "
          "(numpy.percentile); parent_iqr = parent q3 - parent q1; a pair is a win when "
          "the change reads better, ties counting for neither; first_wins counts the pairs "
          "won by the side that ran first; status is 'unresolved' "
          "when parent_iqr / |parent median| exceeds the metric's bound and the change "
          "runs neither all beat nor all lose to every parent run, else 'within parent IQR' when the change "
          "median lies in the parent's [q1, q3], else 'better' when it lies on the better "
          "side, 'worse' when it is worse than the parent median by more than the metric's "
          "bound, and 'within bound' otherwise; a claim is met when the change wins at "
          "least 9 of 10 pairs, its median gain exceeds the parent's IQR and its runs on "
          "the claim's workload fail no larger a share of their operations (failed over "
          "attempted, each summed over pairs) than the parent's")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(checkout: str, workload: str, seed: int, trace: int, seconds: float) -> dict:
    """One `bench/run.py` run in `checkout`; returns its last-line JSON."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_pairs(args) -> None:
    checkouts = {"parent": args.parent, "change": args.change}
    seconds = _benchmark()["run_seconds"]
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args.workload, args.seed, args.trace, seconds)
            record = {"side": side, "pair": pair, "first": order[0], "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, **result}
            with open(args.runs, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"pair {pair} {side}: correct={result['correct']}", flush=True)


def _quartiles(values) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def summarize(pairs: list[dict], better: str, bound: float, metric: str) -> dict:
    """Medians, quartiles, the parent's IQR and the wins of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    diffs = [sign * (c - p) for p, c in zip(parent, change)]  # < 0: the change won
    change_wins = sum(d < 0 for d in diffs)
    parent_wins = sum(d > 0 for d in diffs)
    # pairs won by the side that ran first: a steady count is an order bias
    first_wins = sum(d < 0 if q["first"] == "change" else d > 0 for d, q in zip(diffs, pairs))
    ratio = cm / pm if pm else (1.0 if cm == pm else float("inf"))
    worse_by = sign * (ratio - 1.0)
    spread = (p3 - p1) / abs(pm) if pm else (0.0 if p3 == p1 else float("inf"))
    gaps = [sign * (c - p) for p in parent for c in change]
    separated = all(g < 0 for g in gaps) or all(g > 0 for g in gaps)
    if spread > bound and not separated:
        status = "unresolved"
    elif p1 <= cm <= p3:
        status = "within parent IQR"
    elif worse_by < 0:
        status = "better"
    else:  # the benchmark's own rule: worse only past the metric's bound
        status = "worse" if worse_by > bound else "within bound"
    return {"better": better, "bound": bound, "parent_median": pm, "parent_q1": p1,
            "parent_q3": p3, "parent_iqr": p3 - p1, "change_median": cm, "change_q1": c1,
            "change_q3": c3, "change_over_parent": ratio, "worse_by": worse_by,
            "within_bound": worse_by <= bound, "change_wins": change_wins,
            "parent_wins": parent_wins, "first_wins": first_wins, "pairs": len(pairs),
            "status": status}


def _pairs(runs: list[dict]) -> dict[tuple, dict]:
    """Runs grouped by (workload, seed, pair), each with both sides."""
    grouped: dict[tuple, dict] = {}
    for r in runs:
        entry = grouped.setdefault((r["workload"], r["seed"], r["pair"]),
                                   {"pair": r["pair"], "first": r["first"]})
        if r["side"] in entry:
            raise ValueError(f"two {r['side']} runs for {r['workload']} pair {r['pair']}")
        entry[r["side"]] = {k: v["value"] for k, v in r["metrics"].items()}
        entry[f"{r['side']}_failed"] = r["failed"]
        entry[f"{r['side']}_attempted"] = r["attempted"]
        entry.setdefault("correct", {})[r["side"]] = r["correct"]
    for key, entry in grouped.items():
        if not all(side in entry for side in SIDES):
            raise ValueError(f"pair {key} lacks a side")
        entry["correct"] = [entry["correct"][s] for s in SIDES]
    return grouped


def fold(runs: list[dict], end_to_end: list[dict], claim: tuple[str, str] | None = None
         ) -> dict:
    """The `workloads`, `traced` and `verdict` parts of a BENCH file from kept
    runs; `end_to_end` is BENCHMARK.json's list of metrics, `claim` a
    (workload, metric) pair."""
    out: dict = {"workloads": {}, "traced": {}}
    for (workload, seed, _), entry in sorted(_pairs([r for r in runs if not r["trace"]]).items()):
        w = out["workloads"].setdefault(workload, {"seed": seed, "pairs": []})
        if w["seed"] != seed:
            raise ValueError(f"{workload} runs use two seeds")
        w["pairs"].append(entry)
    for w in out["workloads"].values():
        w["summary"] = {m["name"]: summarize(w["pairs"], m["better"], m["bound"], m["name"])
                        for m in end_to_end}
    for (workload, seed, _), entry in sorted(_pairs([r for r in runs if r["trace"]]).items()):
        out["traced"].setdefault(workload, []).append(
            {"seed": seed, "first": entry["first"],
             "per_layer": {s: entry[s] for s in SIDES}})
    if claim:
        workload, metric = claim
        w = out["workloads"][workload]
        s = w["summary"][metric]
        gain = (s["parent_median"] - s["change_median"]) * (1 if s["better"] == "lower" else -1)
        # a faster side fits more rounds, so it is judged by its share of failures
        failed, share = {}, {}
        for side in SIDES:
            failed[side] = sum(p[f"{side}_failed"] for p in w["pairs"])
            attempted = sum(p[f"{side}_attempted"] for p in w["pairs"])
            share[side] = failed[side] / attempted if attempted else 0.0
        out["verdict"] = {"metric": metric, "workload": workload,
                          "change_wins": s["change_wins"], "pairs": s["pairs"],
                          "median_gain": gain, "parent_iqr": s["parent_iqr"],
                          "parent_failed": failed["parent"], "change_failed": failed["change"],
                          "parent_failed_share": share["parent"],
                          "change_failed_share": share["change"],
                          "met": (s["change_wins"] >= 0.9 * s["pairs"] and gain > s["parent_iqr"]
                                  and share["change"] <= share["parent"])}
    return out


def _environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def fold_files(args) -> None:
    runs = []
    for path in args.runs:
        with open(path) as fh:
            runs += [json.loads(line) for line in fh if line.strip()]
    benchmark = _benchmark()
    claim = tuple(args.claim_metric.split(":")) if args.claim_metric else None
    doc = {"label": args.label, "claim": args.claim, "parent": args.parent_sha,
           "command": "python3 bench/run.py --workload <workload> --seed <seed> "
                      f"--seconds {benchmark['run_seconds']} --trace <0|1>",
           "method": METHOD, "env": _environment(), **fold(runs, benchmark["end_to_end"], claim)}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run alternating pairs and append each run")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--runs", required=True, help="JSON-lines file the runs are appended to")
    f = sub.add_parser("fold", help="fold kept runs into one BENCH_<label>.json")
    f.add_argument("runs", nargs="+", help="JSON-lines files written by `run`")
    f.add_argument("--label", required=True)
    f.add_argument("--claim", default="", help="the claim, in words")
    f.add_argument("--claim-metric", default="", dest="claim_metric",
                   help="the claimed metric as WORKLOAD:METRIC")
    f.add_argument("--parent-sha", default="", dest="parent_sha")
    f.add_argument("--out", required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    (run_pairs if args.command == "run" else fold_files)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
