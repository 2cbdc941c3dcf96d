"""Whole-workflow benchmark for spline2relu.

    python3 bench/run.py --workload spline-wide --seed 1 --seconds 40 --trace 0

Runs the workload's jobs in rounds through `spline2relu.cli.main` and the
library API, in this process and on one thread, for as many rounds as fit in
`--seconds`.  Every output is checked against the independent references in
reference.py.  The last stdout line is one JSON
object: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`.  Details (percentiles used, sample counts, environment) go to
bench/results/.  See bench/README.md.
"""

import os
import sys
import time

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "SPLINE2RELU_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 3
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one round, for the benchmark's own tests")
    return p.parse_args(argv)


IMPORT_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy, spline2relu; "
               "from spline2relu import approx, cli, compiler, cpwl")


def time_import():
    """Time of one fresh interpreter importing the program."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC], check=True)
    return time.perf_counter() - start


def import_program():
    """Import spline2relu from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "spline2relu", "__init__.py")):
        raise SystemExit(f"error: no spline2relu sources under {SRC}")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import spline2relu
    from spline2relu import approx, cli, compiler, cpwl  # noqa: F401
    if not os.path.abspath(spline2relu.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported spline2relu from {spline2relu.__file__}")
    return spline2relu


def git_sha():
    """HEAD commit read from .git without running git, or 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": PINNED, "git_sha": git_sha(), "seed": seed}


class CpuPicker:
    """Pins the process to whichever allowed CPU is fastest right now.

    On a shared host a vCPU can run 1.5-1.8x slower for seconds at a time
    while another stays fast (the other tenants' load, not ours: CPU time
    equals wall time and steal is zero).  Before each job every allowed CPU
    (at most MAX_PROBED) runs a sub-millisecond probe and the job runs on
    the fastest, so timings track the program rather than the neighbours.
    """

    MAX_PROBED = 8

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))[:self.MAX_PROBED]
        except (AttributeError, OSError):
            self.cpus = []
        self.picks = {}

    @staticmethod
    def _probe_ms():
        # plain Python, so the CPU can be chosen before numpy is imported
        start = time.perf_counter()
        table = {}
        for i in range(600):
            table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        sorted(table.values())
        return (time.perf_counter() - start) * 1e3

    def pick(self):
        if len(self.cpus) < 2:
            return
        speeds = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                speeds.append((statistics.median(self._probe_ms() for _ in range(5)), cpu))
            best = min(speeds)[1]
            os.sched_setaffinity(0, {best})
        except OSError:
            self.cpus = []
            return
        self.picks[best] = self.picks.get(best, 0) + 1


class Calibration:
    """Speed of the machine, measured alongside the jobs.

    On a shared host the whole machine runs 1.2-1.6x slower for tens of
    seconds at a time, so even the fastest repeat of a job moves by a fifth
    between runs a minute apart.  Before every job a fixed kernel of the same
    kind of work as the program (small numpy arrays driven from Python loops,
    float parsing) is timed; it is the benchmark's own code, so a change to
    spline2relu cannot move it.  Every reported time is scaled by
    REFERENCE_MS over the kernel's 10th-percentile time in this run: times
    are given at the speed at which the kernel takes REFERENCE_MS, and the
    raw times are kept in the results file.
    """

    REFERENCE_MS = 2.0

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.curves = [np.sort(rng.random(60)) for _ in range(8)]
        self.text = "\n".join(" ".join(repr(v) for v in rng.random(8).tolist())
                               for _ in range(150))
        self.samples = []

    def sample(self):
        np = self.np
        start = time.perf_counter()
        for i in range(60):
            x = self.curves[i % 8]
            grid = np.union1d(np.linspace(0.0, 1.0, 40), x[::5] + 1e-3 * i)
            slopes = np.diff(np.concatenate(([0.0], x)))
            float(np.abs(np.maximum(np.interp(grid, x, slopes) - 0.01, 0.0)).max())
        np.asarray([[float(t) for t in line.split()] for line in self.text.splitlines()]).sum()
        self.samples.append((time.perf_counter() - start) * 1e3)

    def scale(self):
        """Factor from measured times to times at the reference speed."""
        return self.REFERENCE_MS / float(self.np.percentile(self.samples, 10))


def tail_percentile(n):
    """Highest percentile with TAIL_BEYOND of n samples beyond it, at least p50."""
    return max(50.0, 100.0 * (1.0 - TAIL_BEYOND / n)) if n else 50.0


class Samples:
    """Job outcomes of one run, kept per job slot.

    Slot i is the i-th job of the workload's job list: the same kind and size
    of job in every round, on fresh inputs.  Counts are kept per slot so that
    ratios weigh every slot once, however often it ran.
    """

    def __init__(self):
        self.rows = {}       # slot -> [{step: ms, "job": ms}, ...]
        self.totals = {}     # slot -> [runs, attempted, failed, breakpoints]
        self.attempted = self.failed = self.unexpected = 0
        self.sup_errors, self.budget_ratios, self.approx_ratios = [], [], []

    def add(self, slot, res):
        self.rows.setdefault(slot, []).append(dict(res.steps, job=res.job_ms))
        tot = self.totals.setdefault(slot, [0, 0, 0, 0])
        for i, v in enumerate((1, res.attempted, res.failed, res.breakpoints)):
            tot[i] += v
        self.attempted += res.attempted
        self.failed += res.failed
        self.unexpected += res.failed_unexpected
        self.sup_errors += res.sup_errors
        self.budget_ratios += res.budget_ratios
        self.approx_ratios += res.approx_ratios

    def job_ms(self):
        return [row["job"] for rows in self.rows.values() for row in rows]

    def per_run(self, column):
        """Sum over slots of one run's worth of a count (its mean per run)."""
        return sum(t[column] / t[0] for t in self.totals.values())

    def fastest(self, key):
        """Per job slot, the fastest of its repeats.

        Interference from other work on the machine only ever adds time, so
        the fastest repeat is the steadiest estimate of what the job costs.
        """
        out = []
        for rows in self.rows.values():
            times = [row[key] for row in rows if key in row]
            if times:
                out.append(min(times))
        return out


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a mean of all sorted values
    weighted by the Beta(q (n+1), (1-q) (n+1)) mass of their rank interval.

    Unlike interpolating the two neighbouring values it averages a few slots
    around the quantile, so one slot's noise moves it less.
    """
    import numpy as np
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def timing_metrics(samples, tails, info):
    """p50 (and tail) per step over job slots, recording percentile and count."""
    out = {}
    for key in ("compile", "verify", "eval", "job"):
        values = samples.fastest(key)
        pct = tail_percentile(len(values))
        out[f"{key}_ms.p50"] = quantile(values, 0.5)
        info[f"{key}_ms"] = {"samples": len(values), "tail_percentile": pct}
        if key in tails:
            out[f"{key}_ms.tail"] = quantile(values, pct / 100.0)
    return out


def end_to_end(samples, setup_s, scale, info):
    """End-to-end metrics; times (and the rate) at the reference speed."""
    m = {k: v * scale for k, v in timing_metrics(samples, ("compile", "verify", "job"),
                                                  info).items()}
    units = {k: "ms" for k in m}
    m.update({
        "setup_s": setup_s * scale,
        # breakpoints of one run of every slot over the slots' fastest job times
        "breakpoints_per_s": samples.per_run(3) / (sum(samples.fastest("job")) * scale / 1e3),
        "sup_error.max": max(samples.sup_errors),
        "budget_ratio.max": max(samples.budget_ratios),
        "approx_error_ratio.max": max(samples.approx_ratios),
        "failed_ratio": samples.per_run(2) / samples.per_run(1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    units.update({"setup_s": "s", "breakpoints_per_s": "1/s", "sup_error.max": "abs",
                  "budget_ratio.max": "ratio", "approx_error_ratio.max": "ratio",
                  "failed_ratio": "ratio", "peak_rss_mb": "MB"})
    return {k: {"value": v, "unit": units[k]} for k, v in m.items()}


def main(argv=None):
    args = parse_args(argv)
    cpus = CpuPicker()
    cpus.pick()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    s2r = import_program()
    import tracing

    work = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, s2r, workloads, tracing, cpus, work, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, s2r, workloads, tracing, cpus, work, results):
    # set-up: inputs of the first rounds, each followed by one warm-up job
    clock = Calibration()
    rounds_in = []
    setup = []
    for r in range(1 if args.smoke else SETUP_REPEATS):
        start = time.perf_counter()
        jobs = workloads.make_round(args.workload, args.seed, r, work, args.smoke)
        smallest = min((j for j in jobs if isinstance(j, workloads.NetJob) and j.defect is None),
                       key=lambda j: j.n)
        cpus.pick()
        clock.sample()
        workloads.run_job(s2r, smallest)
        setup.append(time.perf_counter() - start)
        rounds_in.append(jobs)

    tracer = tracing.Tracer() if args.trace else None
    plain, traced = Samples(), Samples()
    slots = range(len(rounds_in[0]))
    heavy = [i for i in slots if workloads.is_heavy(args.workload, rounds_in[0][i])]
    light = [i for i in slots if i not in heavy]
    # an untraced run goes through every heavy slot once before it may stop
    min_rounds = 1 if args.smoke else max(MIN_ROUNDS, len(heavy))
    begin = time.perf_counter()
    round_s, imports = [], []
    r = 0
    while True:
        round_start = time.perf_counter()
        # traced runs alternate plain and traced rounds of every job over the
        # first round's inputs, so per-round counts repeat exactly and the
        # overhead is comparable; untraced rounds run the light jobs and one
        # heavy job in turn on fresh inputs, so the light jobs, whose times
        # set the percentiles, repeat several times more
        if args.trace:
            jobs, run = rounds_in[0], slots
        else:
            if r >= len(rounds_in):
                rounds_in.append(workloads.make_round(args.workload, args.seed, r, work,
                                                      args.smoke))
            jobs = rounds_in[r]
            run = slots if args.smoke else sorted(light + [heavy[r % len(heavy)]])
        on = bool(args.trace) and r % 2 == 1
        sink = traced if on else plain
        if on:
            tracer.install()
        try:
            for slot in run:
                if on:
                    tracer.job_id = r * len(jobs) + slot
                cpus.pick()
                clock.sample()
                sink.add(slot, workloads.run_job(s2r, jobs[slot]))
        finally:
            if on:
                tracer.uninstall()
        if not args.trace:
            # set-up is timed again in every round, so that its median spans
            # the run rather than one moment of it
            imports.append(time_import())
        round_s.append(time.perf_counter() - round_start)
        r += 1
        done = r >= (2 if args.trace else min_rounds)
        # stop unless one more round as long as the longest so far still ends in time
        if done and time.perf_counter() - begin + max(round_s) > args.seconds:
            break

    info = {"workload": args.workload, "rounds": r, "round_s": round_s, "trace": args.trace,
            "env": environment(args.seed), "import_s": imports, "setup_reps_s": setup,
            "cpu_picks": cpus.picks, "calibration_ms": clock.samples, "scale": clock.scale()}
    if args.trace:
        layers = tracing.layer_metrics(tracer, r // 2)
        overhead = statistics.median(traced.job_ms()) - statistics.median(plain.job_ms())
        layers["trace.overhead_ms"] = (overhead, "ms")
        metrics = {k: {"value": v * clock.scale() if u == "ms" else v, "unit": u}
                   for k, (v, u) in layers.items()}
        # one span file per workload (the latest run): spans take megabytes
        tracer.save(os.path.join(results, f"spans-{args.workload}.npz"))
    else:
        setup_s = statistics.median(imports) + statistics.median(setup)
        metrics = end_to_end(plain, setup_s, clock.scale(), info)
    attempted = plain.attempted + traced.attempted
    unexpected = plain.unexpected + traced.unexpected
    info.update(attempted=attempted, failed=plain.failed + traced.failed,
                failed_unexpected=unexpected, metrics=metrics, heavy_slots=heavy,
                plain_rows=plain.rows)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(info, fh, indent=1)
    for key, val in metrics.items():
        print(f"{key:36s} {val['value']:.6g} {val['unit']}")
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": unexpected, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
