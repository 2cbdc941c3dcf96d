"""Seeded inputs, jobs and reference checks for the three benchmark workloads.

A workload is a fixed list of job specs per round; the seed only moves knot
positions, values, coefficients and kink panels, never sizes, so every run
times the same mix.  The adversarial splines come from a constant seed: they
reproduce recorded known defects and must give the same verdict on every run.
"""

import contextlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

import reference

ADVERSARIAL_SEED = 1905
EVAL_GRID = 10001
FOURIER_WIDTH = 10
TAKAGI_ORDERS = (14, 16, 18, 20)
RATES_MS = "1:16"
RIESZ_K = 32
# rows of `rates --family takagi` at its default 4097-point grid from this
# order up measure 0: every grid point and breakpoint is dyadic
RATES_DYADIC_FROM = 12
HOLDER_KINKS = 8
HOLDER_RHO = 0.9


@dataclass
class Outcome:
    """Timings and verdicts of one job."""

    job_ms: float = 0.0
    steps: dict = field(default_factory=dict)      # compile/verify/eval -> ms
    attempted: int = 0
    failed: int = 0
    failed_unexpected: int = 0
    breakpoints: int = 0
    sup_errors: list = field(default_factory=list)
    budget_ratios: list = field(default_factory=list)
    approx_ratios: list = field(default_factory=list)

    def check(self, ok, defect=None):
        """Count one checked output; failures of known-defect inputs are
        also kept apart from the unexpected ones."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if defect is None:
                self.failed_unexpected += 1
        return ok


def passes(check, *args):
    """Run a reference check; a malformed or missing output fails it."""
    try:
        return bool(check(*args))
    except (OSError, ValueError, IndexError, KeyError):
        return False


def call_cli(cli, argv):
    """Run `spline2relu <argv>` in process; (exit code, ms, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    ms = (time.perf_counter() - start) * 1e3
    return code, ms, out.getvalue(), err.getvalue()


def write_spline(path, knots, values):
    with open(path, "w") as fh:
        fh.write(f"{knots.size}\n")
        fh.writelines(f"{x!r} {v!r}\n" for x, v in zip(knots.tolist(), values.tolist()))


# --- spline generators ------------------------------------------------------

def regular_spline(rng, n):
    """n interior knots with gaps within a factor 4 of each other, values in [-2, 2]."""
    gaps = rng.uniform(0.4, 1.6, n + 1)
    inner = np.cumsum(gaps)[:-1] / gaps.sum()
    return np.concatenate(([0.0], inner, [1.0])), rng.uniform(-2.0, 2.0, n + 2)


def near_end_spline(rng, n):
    """Regular spline whose last interior knot sits within 1e-13 of 1."""
    knots, values = regular_spline(rng, n)
    knots[-2] = 1.0 - rng.uniform(1e-14, 1e-13)
    return knots, values


def clustered_spline(rng, n, count=39, spacing=1e-9):
    """Regular spline plus `count` knots `spacing` apart at a random place."""
    knots, values = regular_spline(rng, n)
    start = rng.uniform(0.2, 0.8)
    cluster = start + spacing * np.arange(count)
    keep = (knots < start - 1e-6) | (knots > cluster[-1] + 1e-6)
    xs = np.concatenate((knots[keep], cluster))
    vs = np.concatenate((values[keep], rng.uniform(-2.0, 2.0, count)))
    order = np.argsort(xs)
    return xs[order], vs[order]


def large_slope_spline(rng, n):
    """Regular knots with values in [-1e4, 1e4]."""
    knots, _ = regular_spline(rng, n)
    return knots, rng.uniform(-1e4, 1e4, n + 2)


ADVERSARIAL = {
    "near-end-knot": near_end_spline,
    "clustered-knots": clustered_spline,
    "large-slopes": large_slope_spline,
}
ADVERSARIAL_N = 97  # odd and not a multiple of 11, so every width pads knots


# --- jobs -------------------------------------------------------------------

@dataclass
class NetJob:
    """Build a network with one CLI command, then verify and evaluate it.

    `build` is the argv that writes `net_path`; the target is the CPwL given
    by `knots`/`values`, also written to `spline_path` for `verify`.
    """

    label: str
    build: list
    width: int
    knots: np.ndarray
    values: np.ndarray
    spline_path: str
    net_path: str
    csv_path: str
    budget: int             # closed-form parameter budget
    defect: str = None

    @property
    def n(self):
        return self.knots.size - 2


def spline_job(label, width, knots, values, spline_path, work, defect=None):
    net, csv = os.path.join(work, "job.net"), os.path.join(work, "job.csv")
    return NetJob(label, ["compile", spline_path, "--width", str(width), "--out", net],
                  width, knots, values, spline_path, net, csv,
                  reference.spline_budget(width, knots.size - 2), defect)


def fourier_budget(terms, width):
    lam = max(j for j, _, _ in terms)
    group = (width - 2) // 4
    levels = max(0, (lam - 1).bit_length()) + 2
    depth = 2 * -(-len(terms) // group) * levels
    return reference.param_count(width, depth)


def fourier_job(label, terms, spline_path, work):
    net, csv = os.path.join(work, "job.net"), os.path.join(work, "job.csv")
    text = ",".join(f"{j}:{a!r}:{b!r}" for j, a, b in terms)
    knots, values = reference.trig_sum(terms)
    return NetJob(label, ["fourier", "--terms", text, "--width", str(FOURIER_WIDTH), "--out", net],
                  FOURIER_WIDTH, knots, values, spline_path, net, csv,
                  fourier_budget(terms, FOURIER_WIDTH))


def run_net_job(cli, job, tamper=None):
    """compile -> verify -> eval; three checked outputs."""
    res = Outcome()
    for path in (job.net_path, job.csv_path):
        if os.path.exists(path):
            os.remove(path)
    code, ms, out, _ = call_cli(cli, job.build)
    res.steps["compile"] = ms
    if tamper is not None and code == 0:
        tamper(job.net_path)
    built = code == 0
    if built:
        try:
            width, depth, params, budget, _ = reference.parse_report(out)
            built = (width == job.width and params == reference.param_count(width, depth)
                     and budget == job.budget and params <= budget)
            res.budget_ratios.append(params / job.budget)
        except ValueError:
            built = False
    ok = res.check(built and passes(reference.network_matches, job.net_path, job.knots,
                                    job.values), job.defect)
    if code == 0:
        code, ms, out, _ = call_cli(cli, ["verify", job.net_path, job.spline_path])
        res.steps["verify"] = ms
        try:
            dev = reference.parse_deviation(out)
            res.sup_errors.append(dev)
            ok &= res.check(code == 0 and dev <= reference.EXACT_TOL, job.defect)
        except ValueError:
            ok &= res.check(False, job.defect)
        code, ms, _, _ = call_cli(cli, ["eval", job.net_path, "--grid", str(EVAL_GRID),
                                        "--out", job.csv_path])
        res.steps["eval"] = ms
        ok &= res.check(code == 0 and passes(reference.eval_matches, job.csv_path, job.knots,
                                             job.values, EVAL_GRID), job.defect)
    else:
        # no network: verify and eval cannot run, both outputs are lost
        res.check(False, job.defect)
        res.check(False, job.defect)
        ok = False
    res.job_ms = sum(res.steps.values())
    if ok:
        res.breakpoints = job.n
    return res


@dataclass
class TakagiJob:
    order: int
    net_path: str
    csv_path: str


def takagi_values(order, xs):
    """Closed-form order-m dyadic sawtooth sum sum_{i<m} 2^-(i+1) H^(i+1)(x)."""
    total = np.zeros_like(xs)
    for i in range(order):
        t = np.mod(xs * 2.0 ** i, 1.0)
        total += 2.0 ** -(i + 1) * 2.0 * np.minimum(t, 1.0 - t)
    return total


def takagi_line_ok(order, text):
    fields = dict(tok.split("=", 1) for tok in text.split())
    return (int(fields["params"]) == reference.param_count(4, order)
            and reference.takagi_error_ok(order, float(fields["sup_error"])))


def takagi_eval_matches(order, path):
    cols = reference.read_eval_csv(path, EVAL_GRID)
    if cols is None:
        return False
    xs, ys = cols
    return np.all(np.abs(ys - takagi_values(order, xs)) <= reference.EXACT_TOL)


def run_takagi(cli, job):
    """`takagi --order m --out` then `eval`; two checked outputs."""
    res = Outcome()
    code, ms, out, _ = call_cli(cli, ["takagi", "--order", str(job.order), "--out", job.net_path])
    res.steps["takagi"] = ms
    ok = code == 0 and passes(takagi_line_ok, job.order, out)
    res.check(ok)
    if code == 0:
        code, ms, _, _ = call_cli(cli, ["eval", job.net_path, "--grid", str(EVAL_GRID),
                                        "--out", job.csv_path])
        res.steps["eval"] = ms
        ok &= res.check(code == 0 and passes(takagi_eval_matches, job.order, job.csv_path))
    else:
        res.check(False)
    res.job_ms = sum(res.steps.values())
    if ok:
        res.breakpoints = 2 ** job.order - 1
    return res


def rates_row_ok(m, row):
    return (int(row[1]) == reference.param_count(4, m)
            and reference.takagi_error_ok(m, float(row[2])))


def run_rates(cli):
    """`rates --family takagi --ms 1:16`; one checked output per row."""
    res = Outcome()
    code, ms, out, _ = call_cli(cli, ["rates", "--family", "takagi", "--ms", RATES_MS])
    res.job_ms = ms
    got = {}
    for line in out.strip().splitlines()[1:] if code == 0 else []:
        row = line.split(",")
        if row[0].isdigit():
            got[int(row[0])] = row
    lo, hi = (int(t) for t in RATES_MS.split(":"))
    for m in range(lo, hi + 1):
        defect = "dyadic-grid" if m >= RATES_DYADIC_FROM else None
        row = got.get(m)
        ok = row is not None and passes(rates_row_ok, m, row)
        if res.check(ok, defect):
            res.breakpoints += 2 ** m - 1
    return res


def run_riesz(cli):
    """`riesz --K 32`; one checked output."""
    res = Outcome()
    code, ms, out, _ = call_cli(cli, ["riesz", "--K", str(RIESZ_K)])
    res.job_ms = ms
    res.check(code == 0 and passes(reference.riesz_ok, out))
    return res


@dataclass
class HolderJob:
    """rate_experiment rows for one seeded kink-sum target at one width."""

    alpha: float
    width: int
    ms: tuple
    centres: np.ndarray
    signs: np.ndarray


def kink_sum(alpha, centres, signs, rho=HOLDER_RHO):
    """rho/(2K) sum_i s_i (|x - t_i|^a - (1-x) t_i^a - x (1-t_i)^a).

    Each pinned kink vanishes at 0 and 1 and has Lipschitz-alpha seminorm at
    most 2, so the sum has seminorm at most rho < 1.
    """
    scale = rho / (2.0 * len(centres))

    def f(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for t, s in zip(centres, signs):
            total += s * (np.abs(x - t) ** alpha - (1.0 - x) * t ** alpha
                          - x * (1.0 - t) ** alpha)
        return scale * total
    return f


def run_holder(s2r, job):
    """Hoelder approximant rows through approx.rate_experiment (library API)."""
    res = Outcome()
    approx, compiler, cpwl = s2r.approx, s2r.compiler, s2r.cpwl
    target = approx.TargetFunction(kink_sum(job.alpha, job.centres, job.signs),
                                   lip_alpha=(job.alpha, HOLDER_RHO))
    if job.width >= 8:
        def builder(m):
            return approx.lip_alpha_approximant(target, job.alpha, m, job.width)[0]
    else:
        def builder(m):
            nodes = np.arange(m + 1, dtype=float) / m
            return compiler.compile_spline(cpwl.CPwL(nodes, target(nodes)), job.width)[0]
    start = time.perf_counter()
    records = approx.rate_experiment(target, builder, job.ms)
    res.job_ms = (time.perf_counter() - start) * 1e3
    for rec in records:
        k = reference.pattern_resolution(rec.m) if job.width >= 8 else None
        ratio = rec.sup_error / reference.holder_guarantee(rec.m, job.alpha, k)
        ok = np.isfinite(ratio) and ratio <= 1.0 and rec.params > 0
        if np.isfinite(ratio):
            res.approx_ratios.append(float(ratio))
        if res.check(ok):
            res.breakpoints += rec.m - 1
    return res


# --- workload plans ---------------------------------------------------------

# (width, n) per round: a geometric ladder of sizes per width, so the
# percentiles fall among neighbouring sizes rather than in a gap between
# size classes; sizes are fixed so every seed times the same mix
SPLINE_PLANS = {
    "spline-wide": [
        (8, 40), (8, 70), (8, 100), (8, 150), (8, 200), (8, 350), (8, 600), (8, 1200),
        (13, 50), (13, 90), (13, 130), (13, 160), (13, 280), (13, 500), (13, 900),
        (32, 100), (32, 200), (32, 300), (32, 400), (32, 800), (32, 3200),
    ],
    "spline-narrow": [
        (4, 60), (4, 150), (4, 250), (4, 400), (4, 1000), (4, 6400),
        (5, 80), (5, 130), (5, 200), (5, 320), (5, 500), (5, 1600),
        (6, 100), (6, 170), (6, 250), (6, 400), (6, 600), (6, 1200),
        (7, 120), (7, 200), (7, 300), (7, 500), (7, 800), (7, 3200),
    ],
}
HOLDER_PLANS = {
    # (width, ms, alpha) per round
    "spline-wide": [(8, (64, 256), 0.5)],
    "spline-narrow": [(5, (256, 1024), 0.75)],
    "sweeps": [(8, (64, 256, 512), 0.5)],
}
FOURIER_JOBS = 24
FOURIER_TERMS = 3
FOURIER_MAX_INDEX = 24
# coefficient scale of the fixed-seed Fourier canary: its roundoff is the
# largest verify deviation of the sweeps, the same on every run
FOURIER_LARGE = 1e3

SMOKE_SPLINE = {
    "spline-wide": [(8, 20), (8, 30), (13, 30), (32, 40)],
    "spline-narrow": [(4, 20), (4, 30), (5, 30), (7, 40)],
}
SMOKE_HOLDER = {
    "spline-wide": [(8, (32,), 0.5)],
    "spline-narrow": [(4, (32,), 0.5)],
    "sweeps": [(8, (32,), 0.75)],
}

WORKLOADS = ("spline-wide", "spline-narrow", "sweeps")

# Heavy jobs run in turn, one per untraced round: each takes longer than the
# tenth slowest light job of its workload, so it sits above the tail
# percentiles and mostly feeds breakpoints_per_s.
HEAVY_N = {"spline-wide": 500, "spline-narrow": 1000}
HEAVY_TAKAGI = 18


def is_heavy(workload, job):
    if isinstance(job, NetJob):
        return job.n >= HEAVY_N.get(workload, float("inf"))
    if isinstance(job, TakagiJob):
        return job.order >= HEAVY_TAKAGI
    return True  # Hoelder rows, rates, riesz


def fourier_terms(rng, scale):
    """FOURIER_TERMS (index, cos, sin) triples; the top index is always
    FOURIER_MAX_INDEX so every sum has the same depth."""
    others = rng.choice(np.arange(1, FOURIER_MAX_INDEX), FOURIER_TERMS - 1, replace=False)
    return [(int(j), float(rng.uniform(-scale, scale)), float(rng.uniform(-scale, scale)))
            for j in (*others, FOURIER_MAX_INDEX)]


def _holder_jobs(rng, plan):
    """Each kink sits at the midpoint of its own panel of the coarsest grid of
    the job (every finer m is a multiple), so a row's error is set by the
    construction, not by where a kink falls in its panel or whether two
    kinks share one; the seed picks the panels and signs."""
    jobs = []
    for width, ms, alpha in plan:
        panels = rng.choice(min(ms), HOLDER_KINKS, replace=False)
        jobs.append(HolderJob(alpha, width, ms, (np.sort(panels) + 0.5) / min(ms),
                              rng.choice([-1.0, 1.0], HOLDER_KINKS)))
    return jobs


def make_round(workload, seed, index, work, smoke=False):
    """Write the inputs of one round and return its job list (fixed order)."""
    rng = np.random.default_rng([seed, index])
    folder = os.path.join(work, f"round{index}")
    os.makedirs(folder, exist_ok=True)
    jobs = []
    holder_plan = (SMOKE_HOLDER if smoke else HOLDER_PLANS)[workload]
    if workload in SPLINE_PLANS:
        plan = (SMOKE_SPLINE if smoke else SPLINE_PLANS)[workload]
        widths = sorted({w for w, _ in plan})
        for width, n in plan:
            knots, values = regular_spline(rng, n)
            path = os.path.join(folder, f"w{width}-n{n}.spl")
            write_spline(path, knots, values)
            jobs.append(spline_job(f"W{width} n{n}", width, knots, values, path, work))
        adv = np.random.default_rng(ADVERSARIAL_SEED)
        for width in widths:
            for defect, gen in ADVERSARIAL.items():
                knots, values = gen(adv, ADVERSARIAL_N)
                path = os.path.join(folder, f"w{width}-{defect}.spl")
                write_spline(path, knots, values)
                jobs.append(spline_job(f"W{width} {defect}", width, knots, values, path,
                                       work, defect))
    else:
        for order in (TAKAGI_ORDERS[:2] if smoke else TAKAGI_ORDERS):
            jobs.append(TakagiJob(order, os.path.join(work, "takagi.net"),
                                  os.path.join(work, "takagi.csv")))
        jobs.append("rates")
        jobs.append("riesz")
        canary = np.random.default_rng(ADVERSARIAL_SEED)
        draws = [(f"fourier {i}", rng, 1.0) for i in range(2 if smoke else FOURIER_JOBS)]
        draws.append(("fourier large coefficients", canary, FOURIER_LARGE))
        for label, source, scale in draws:
            terms = fourier_terms(source, scale)
            path = os.path.join(folder, label.replace(" ", "-") + ".spl")
            knots, values = reference.trig_sum(terms)
            write_spline(path, knots, values)
            jobs.append(fourier_job(label, terms, path, work))
    jobs.extend(_holder_jobs(rng, holder_plan))
    # interleave big and small jobs the same way in every round
    order = np.random.default_rng(len(jobs)).permutation(len(jobs))
    return [jobs[i] for i in order]


def run_job(s2r, job):
    if isinstance(job, NetJob):
        return run_net_job(s2r.cli, job)
    if isinstance(job, TakagiJob):
        return run_takagi(s2r.cli, job)
    if isinstance(job, HolderJob):
        return run_holder(s2r, job)
    if job == "rates":
        return run_rates(s2r.cli)
    return run_riesz(s2r.cli)
